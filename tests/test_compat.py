"""Reference-shaped facade (compat.py): Schema / create_in / writer /
searcher, differential vs the reference engine on the same corpus."""

import numpy as np
import pytest

import whoosh_novo_ray.compat as C

WORDS = [
    "search", "engine", "index", "query", "table", "window", "merge",
    "batch", "spark", "row", "scan", "fast", "slow", "value", "hash",
]


def _texts(n, seed):
    rng = np.random.RandomState(seed)
    return [
        " ".join(WORDS[i] for i in rng.randint(0, len(WORDS), rng.randint(3, 14)))
        for _ in range(n)
    ]


def _schema():
    return C.Schema(
        title=C.TEXT(stored=True),
        body=C.TEXT(),
        tag=C.ID(stored=True, unique=True),
        n=C.NUMERIC("int"),
        flag=C.BOOLEAN(),
    )


def _build_compat(tmp_path, titles, bodies):
    ix = C.create_in(str(tmp_path / "cix"), _schema())
    with ix.writer() as w:
        for i, (t, b) in enumerate(zip(titles, bodies)):
            w.add_document(title=t, body=b, tag=f"tag{i}", n=i % 7, flag=i % 2 == 0)
    return ix


def _build_reference(tmp_path, titles, bodies):
    whoosh = pytest.importorskip("whoosh")
    from whoosh import index as windex
    from whoosh.fields import BOOLEAN, ID, NUMERIC, TEXT, Schema

    d = tmp_path / "ref"
    d.mkdir()
    schema = Schema(
        title=TEXT(stored=True),
        body=TEXT(),
        tag=ID(stored=True, unique=True),
        n=NUMERIC(int, stored=True),
        flag=BOOLEAN(),
    )
    ix = windex.create_in(str(d), schema)
    w = ix.writer()
    for i, (t, b) in enumerate(zip(titles, bodies)):
        w.add_document(title=t, body=b, tag=f"tag{i}", n=i % 7, flag=bool(i % 2 == 0))
    w.commit()
    return ix


def _ref_search(ix, q, limit=10):
    with ix.searcher() as s:
        r = s.search(q, limit=limit)
        return [(int(h.docnum), float(h.score)) for h in r]


def test_schema_json_roundtrip():
    s = _schema()
    s2 = C.Schema.from_json(s.to_json())
    assert s2.indexed_names() == s.indexed_names()
    assert s2.attr_names() == s.attr_names()
    assert s2["tag"].unique and s2["n"].numtype == "int"


def test_single_field_rank_and_score_parity_vs_reference(ray_session, tmp_path):
    pytest.importorskip("whoosh")
    from whoosh.query import Term as RTerm

    from whoosh_novo_ray.search.query import Term

    titles, bodies = _texts(80, 1), _texts(80, 2)
    cix = _build_compat(tmp_path, titles, bodies)
    rix = _build_reference(tmp_path, titles, bodies)

    for word in ("search", "table", "hash"):
        ours = cix.searcher().search(Term(word, field="body"), limit=10)
        ref = _ref_search(rix, RTerm("body", word), limit=10)
        assert [(h.docnum, round(h.score, 9)) for h in ours] == [
            (d, round(s, 9)) for d, s in ref
        ]


def test_multifield_or_parity_vs_reference(ray_session, tmp_path):
    pytest.importorskip("whoosh")
    from whoosh.qparser import MultifieldParser as RMFP

    titles, bodies = _texts(60, 3), _texts(60, 4)
    cix = _build_compat(tmp_path, titles, bodies)
    rix = _build_reference(tmp_path, titles, bodies)

    s = cix.searcher()
    rp = RMFP(["title", "body"], schema=rix.schema)
    for qs in ("engine", "query merge", "title:window OR body:scan"):
        ours = [(h.docnum, round(h.score, 9)) for h in s.search(qs, limit=10)]
        ref = [
            (d, round(sc, 9)) for d, sc in _ref_search(rix, rp.parse(qs), limit=10)
        ]
        assert ours == ref, qs


def test_stored_fields_and_document_lookup(ray_session, tmp_path):
    titles, bodies = _texts(30, 5), _texts(30, 6)
    cix = _build_compat(tmp_path, titles, bodies)
    s = cix.searcher()

    hit = s.search("engine OR table", limit=3)[0]
    assert hit["title"] == titles[hit.docnum]
    assert hit["tag"] == f"tag{hit.docnum}"
    assert hit["n"] == hit.docnum % 7

    d = s.document(tag="tag7")
    assert d["title"] == titles[7] and d["n"] == 0
    # native-column equality lookup (ColumnQuery over attrs)
    nums = s.document_numbers(n=3)
    assert list(nums) == [i for i in range(30) if i % 7 == 3]
    # boolean term lookup
    evens = s.document_numbers(flag=True)
    assert list(evens) == [i for i in range(30) if i % 2 == 0]


def test_update_delete_lifecycle(ray_session, tmp_path):
    titles, bodies = _texts(20, 7), _texts(20, 8)
    cix = _build_compat(tmp_path, titles, bodies)
    assert cix.doc_count() == 20

    w = cix.writer()
    w.update_document(title="zebra unique text", body="zebra", tag="tag3", n=99)
    w.commit()
    assert cix.doc_count() == 20  # replaced, not added

    s = cix.searcher()
    d = s.document(tag="tag3")
    assert d["title"] == "zebra unique text" and d["n"] == 99
    from whoosh_novo_ray.search.query import Term

    hits = s.search(Term("zebra", field="body"), limit=5)
    assert len(hits) == 1 and hits[0]["tag"] == "tag3"

    w = cix.writer()
    w.delete_by_term("tag", "tag3")
    w.commit()
    assert cix.doc_count() == 19
    s = cix.searcher()
    assert s.document(tag="tag3") is None
    assert len(s.search(Term("zebra", field="body"), limit=5)) == 0


def test_writer_cancel_and_missing_fields(ray_session, tmp_path):
    ix = C.create_in(str(tmp_path / "c2"), _schema())
    w = ix.writer()
    w.add_document(title="only title here", tag="a")
    w.add_document(body="only body here", tag="b")
    w.commit()
    assert ix.doc_count() == 2
    s = ix.searcher()
    from whoosh_novo_ray.search.query import Term

    assert [h.docnum for h in s.search(Term("title", field="title"))] == [0]
    assert [h.docnum for h in s.search(Term("body", field="body"))] == [1]

    w = ix.writer()
    w.add_document(title="never lands", tag="c")
    w.cancel()
    with pytest.raises(RuntimeError, match="cancelled"):
        w.commit()
    assert ix.refresh().doc_count() == 2

    with pytest.raises(ValueError):
        ix.writer().add_document(nope="x")
    with pytest.raises(ValueError):
        ix.writer().update_document(title="no unique key given")


def test_fielded_parse_uses_field_analyzer(ray_session, tmp_path):
    # ID terms keep case through parse (per-field analyzers in qparser)
    ix = C.create_in(str(tmp_path / "c4"), _schema())
    with ix.writer() as w:
        w.add_document(title="mixed case doc", tag="TagMixed")
        w.add_document(title="plain doc", tag="plain")
    s = ix.searcher()
    hits = s.search("tag:TagMixed", limit=5)
    assert [h.docnum for h in hits] == [0]
    # unfielded words still go through the TEXT analyzer (lowercase+stop)
    assert [h.docnum for h in s.search("PLAIN", limit=5)] == [1]


def test_hit_highlights_match_reference(ray_session, tmp_path):
    pytest.importorskip("whoosh")
    titles, bodies = _texts(40, 9), _texts(40, 10)
    cix = _build_compat(tmp_path, titles, bodies)
    rix = _build_reference(tmp_path, titles, bodies)

    from whoosh.query import Term as RTerm

    from whoosh_novo_ray.search.query import Term

    ours = cix.searcher().search(Term("search", field="title"), limit=5)
    with rix.searcher() as rs:
        ref = rs.search(RTerm("title", "search"), limit=5)
        ref_hl = [h.highlights("title") for h in ref]
    # defaults match the reference's (ContextFragmenter + HtmlFormatter("b"))
    got_hl = [h.highlights("title") for h in ours]
    assert got_hl == ref_hl
    assert all('class="match' in h for h in got_hl if h)

    # text= override for unstored fields
    h0 = ours[0]
    snip = h0.highlights("body", text=bodies[h0.docnum])
    assert isinstance(snip, str)


def test_optimize_compacts_members(ray_session, tmp_path):
    from whoosh_novo_ray.search.query import Term

    ix = C.create_in(str(tmp_path / "c5"), _schema())
    for batch in range(3):
        with ix.writer() as w:
            for i in range(5):
                w.add_document(
                    title=f"batch {batch} doc word{i}", tag=f"b{batch}d{i}"
                )
    before = ix.searcher().search(Term("batch", field="title"), limit=None)
    gi = ix._field_gi("title")
    assert len(gi._members(gi.current_path())) > 1
    ix.optimize()
    gi = ix._field_gi("title")
    assert len(gi._members(gi.current_path())) == 1
    after = ix.searcher().search(Term("batch", field="title"), limit=None)
    assert [(h.docnum, round(h.score, 9)) for h in after] == [
        (h.docnum, round(h.score, 9)) for h in before
    ]


def test_add_dataset_bulk_matches_buffered(ray_session, tmp_path):
    """The scale ingestion path: add_dataset (blocks stay in the object
    store) produces an index identical to per-row add_document."""
    import pyarrow as pa
    import ray.data

    from whoosh_novo_ray.search.query import Term

    titles, bodies = _texts(50, 11), _texts(50, 12)
    tbl = pa.table(
        {
            "title": pa.array(titles),
            "body": pa.array(bodies),
            "tag": pa.array([f"tag{i}" for i in range(50)]),
            "n": pa.array([i % 7 for i in range(50)], pa.int64()),
            "flag": pa.array([i % 2 == 0 for i in range(50)]),
        }
    )
    bulk = C.create_in(str(tmp_path / "bulk"), _schema())
    with bulk.writer() as w:
        w.add_dataset(ray.data.from_arrow(tbl).repartition(5))
    buffered = _build_compat(tmp_path, titles, bodies)

    assert bulk.doc_count() == 50
    sb, sf = bulk.searcher(), buffered.searcher()
    for q in (Term("search", field="body"), Term("table", field="title")):
        a = [(h.docnum, round(h.score, 9)) for h in sb.search(q, limit=10)]
        b = [(h.docnum, round(h.score, 9)) for h in sf.search(q, limit=10)]
        assert a == b
    # stored fields come from the dataset-written part dir
    hit = sb.search(Term("search", field="body"), limit=1)[0]
    assert hit["title"] == titles[hit.docnum]
    assert hit["n"] == hit.docnum % 7


def test_add_dataset_explicit_ids_and_mixed_commit(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data

    from whoosh_novo_ray.search.query import Term

    ix = C.create_in(str(tmp_path / "mix"), _schema())
    tbl = pa.table(
        {
            "doc_id": pa.array([100, 101, 102], pa.int64()),
            "title": pa.array(["bulk one zebra", "bulk two", "bulk three zebra"]),
            "tag": pa.array(["b1", "b2", "b3"]),
        }
    )
    w = ix.writer()
    w.add_document(title="buffered zebra doc", tag="buf")
    w.add_dataset(ray.data.from_arrow(tbl).repartition(2), id_col="doc_id")
    w.commit()
    assert ix.doc_count() == 4

    s = ix.searcher()
    hits = s.search(Term("zebra", field="title"), limit=10)
    assert sorted(h.docnum for h in hits) == [0, 100, 102]
    assert s.document(tag="b2")["title"] == "bulk two"
    # next commit's sequential ids start past the explicit ones
    w = ix.writer()
    w.add_document(title="later doc", tag="later")
    w.commit()
    s = ix.searcher()
    assert s.document_number(tag="later") == 103


def test_suggest_and_correct_query(ray_session, tmp_path):
    from whoosh_novo_ray.search.query import Term

    ix = C.create_in(str(tmp_path / "sg"), _schema())
    with ix.writer() as w:
        for i in range(6):
            w.add_document(title="window search engine", tag=f"t{i}")
        w.add_document(title="wander around", tag="t9")
    s = ix.searcher()
    sugs = s.suggest("title", "windoe")
    assert sugs and sugs[0] == "window"
    q2, changed = s.correct_query("title:windoe")
    assert changed
    terms = [l.text for l in q2.leaves() if isinstance(l, Term)]
    assert "window" in terms
    q3, changed3 = s.correct_query(Term("window", field="title"))
    assert not changed3


def test_pooled_search_matches_local(ray_session, tmp_path):
    """pooled=True routes single-field queries through the distributed
    ScorePool (doc-shard actors) with results identical to the local path."""
    from whoosh_novo_ray.search.query import And, Or, Phrase, Prefix, Term

    titles, bodies = _texts(60, 13), _texts(60, 14)
    ix = _build_compat(tmp_path, titles, bodies)
    local = ix.searcher()
    pooled = ix.searcher(pooled=True, num_actors=2)

    cases = [
        Term("search", field="body"),
        Or(Term("table", field="body"), Term("window", field="body")),
        And(Term("fast", field="title"), Term("row", field="title")),
        Phrase(["search", "engine"], field="body"),
        Prefix("sc"),  # unfielded leaf -> default field, still poolable
        # mixed fields -> falls back to the local router, same results
        Or(Term("merge", field="title"), Term("merge", field="body")),
    ]
    for q in cases:
        a = [(h.docnum, round(h.score, 9)) for h in pooled.search(q, limit=10)]
        b = [(h.docnum, round(h.score, 9)) for h in local.search(q, limit=10)]
        assert a == b, q
    # stored fields hydrate on the pooled path too
    hit = pooled.search(Term("search", field="body"), limit=1)
    if hit:
        assert hit[0]["title"] == titles[hit[0].docnum]
    # pools are cached on the index: a second searcher reuses the fleet
    pooled2 = ix.searcher(pooled=True, num_actors=2)
    assert pooled2._pool_for("body") is ix._pools[("body", 1)]


def test_stemmed_text_parity_vs_reference(ray_session, tmp_path):
    """TEXT(stem=True) == reference TEXT(analyzer=StemmingAnalyzer())."""
    pytest.importorskip("whoosh")
    import whoosh.index as windex
    from whoosh.analysis import StemmingAnalyzer
    from whoosh.fields import TEXT as RTEXT
    from whoosh.fields import Schema as RSchema
    from whoosh.query import Term as RTerm

    from whoosh_novo_ray.search.query import Term

    texts = [
        "running runs runner ran",
        "the runner was running fast",
        "stems stemming stemmed words",
        "completely unrelated content here",
        "runners keep running and running",
    ] * 6
    cix = C.create_in(
        str(tmp_path / "stem"), C.Schema(body=C.TEXT(stem=True), tag=C.ID())
    )
    with cix.writer() as w:
        for i, t in enumerate(texts):
            w.add_document(body=t, tag=f"t{i}")

    d = tmp_path / "refstem"
    d.mkdir()
    rix = windex.create_in(
        str(d), RSchema(body=RTEXT(analyzer=StemmingAnalyzer()))
    )
    w = rix.writer()
    for t in texts:
        w.add_document(body=t)
    w.commit()

    s = cix.searcher()
    for word in ("running", "stemming", "runner"):
        ours = [
            (h.docnum, round(h.score, 9))
            for h in s.search(s.parse(f"body:{word}"), limit=10)
        ]
        with rix.searcher() as rs:
            # parse-side stemming: the reference parser stems fielded words
            from whoosh.qparser import QueryParser as RQP

            rq = RQP("body", rix.schema).parse(word)
            ref = [
                (int(h.docnum), round(float(h.score), 9))
                for h in rs.search(rq, limit=10)
            ]
        assert ours == ref, word


def test_lifecycle_fuzz_vs_model(ray_session, tmp_path):
    """Random add/update/delete commit sequence vs a dict model: live doc
    count and per-term match sets stay exact through the generational
    machinery."""
    from whoosh_novo_ray.analysis import StandardAnalyzer
    from whoosh_novo_ray.search.query import Term

    rng = np.random.RandomState(42)
    ana = StandardAnalyzer()
    ix = C.create_in(
        str(tmp_path / "fz"),
        C.Schema(body=C.TEXT(), key=C.ID(stored=True, unique=True)),
    )
    # live docs as (doc_id, key, body); commit semantics mirrored exactly:
    # update/delete lookups see only COMMITTED docs (reference quirk — a
    # same-writer add of the key survives), deletes apply before adds
    live: list[tuple[int, str, str]] = []
    next_id = 0
    key_seq = 0

    for step in range(6):
        w = ix.writer()
        committed_keys = {k for _i, k, _b in live}
        del_keys: set[str] = set()
        new_rows: list[tuple[int, str, str]] = []
        for _ in range(rng.randint(2, 6)):
            op = rng.choice(["add", "update", "delete"])
            existing = sorted(committed_keys)
            if op == "add" or not existing:
                key = f"k{key_seq}"
                key_seq += 1
                body = " ".join(WORDS[i] for i in rng.randint(0, len(WORDS), 8))
                w.add_document(body=body, key=key)
                new_rows.append((next_id, key, body))
                next_id += 1
            elif op == "update":
                key = existing[rng.randint(0, len(existing))]
                body = " ".join(WORDS[i] for i in rng.randint(0, len(WORDS), 8))
                w.update_document(body=body, key=key)
                del_keys.add(key)
                new_rows.append((next_id, key, body))
                next_id += 1
            else:
                key = existing[rng.randint(0, len(existing))]
                w.delete_by_term("key", key)
                del_keys.add(key)
        w.commit()
        live = [r for r in live if r[1] not in del_keys] + new_rows

        assert ix.doc_count() == len(live), step
        s = ix.searcher()
        for word in ("search", "table", "hash"):
            got = sorted(
                h.docnum for h in s.search(Term(word, field="body"), limit=None)
            )
            want = sorted(did for did, _k, body in live if word in ana(body))
            assert got == want, (step, word)
        if live:
            assert s.document(key=live[0][1]) is not None


def test_search_page(ray_session, tmp_path):
    from whoosh_novo_ray.search.query import Term

    titles, bodies = _texts(40, 15), _texts(40, 16)
    ix = _build_compat(tmp_path, titles, bodies)
    s = ix.searcher()
    q = Term("value", field="body")
    full = s.search(q, limit=None)
    pg1 = s.search_page(q, 1, pagelen=4)
    pg2 = s.search_page(q, 2, pagelen=4)
    assert [h.docnum for h in pg1["hits"]] == [h.docnum for h in full[:4]]
    assert [h.docnum for h in pg2["hits"]] == [h.docnum for h in full[4:8]]
    assert pg1["total"] == len(full)
    # page past the end -> last page (reference behavior)
    last = s.search_page(q, 999, pagelen=4)
    assert last["is_last_page"] and last["pagenum"] == pg1["pagecount"]
    assert pg1["hits"][0]["title"] == titles[pg1["hits"][0].docnum]


def test_write_lock_blocks_second_committer(ray_session, tmp_path):
    import os

    ix = C.create_in(str(tmp_path / "lk"), _schema())
    lock = os.path.join(ix.root, ".write_lock")
    os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    w = ix.writer()
    w.add_document(title="blocked", tag="x")
    import whoosh_novo_ray.compat as compat_mod

    # shrink the wait so the test stays fast
    import time as _time

    real_monotonic = _time.monotonic
    t0 = real_monotonic()
    try:
        _time.monotonic = lambda: real_monotonic() + (
            0 if real_monotonic() - t0 < 0.3 else 3600
        )
        import pytest as _pytest

        with _pytest.raises(TimeoutError):
            w.commit()
    finally:
        _time.monotonic = real_monotonic
        os.unlink(lock)
    w.commit()  # lock released: commit proceeds
    assert ix.doc_count() == 1


def test_datetime_parse_and_numeric_range(ray_session, tmp_path):
    from datetime import datetime, timezone

    from whoosh_novo_ray.search.query import And, Term

    ix = C.create_in(
        str(tmp_path / "dt"),
        C.Schema(body=C.TEXT(), ts=C.DATETIME(), n=C.NUMERIC("int")),
    )
    base = datetime(2024, 6, 1, tzinfo=timezone.utc)
    with ix.writer() as w:
        for i in range(12):
            w.add_document(
                body=f"event number {i} search",
                ts=datetime(2024, 1 + i % 12, 5, tzinfo=timezone.utc),
                n=i,
            )
    s = ix.searcher()
    q = s.parse("body:search AND ts:'jan 2024 to mar 2024'", basedate=base)
    got = sorted(h.docnum for h in s.search(q, limit=None))
    # months jan..mar 2024 -> i in {0, 1, 2} ('to' range is exclusive of
    # the moment apr starts; mar 5 included)
    assert got == [0, 1, 2]

    nr = s.numeric_range("n", 3, 6)
    got_n = sorted(h.docnum for h in s.search(And(Term("search"), nr), limit=None))
    assert got_n == [3, 4, 5, 6]


def test_more_like_and_key_terms(ray_session, tmp_path):
    titles, bodies = _texts(40, 17), _texts(40, 18)
    ix = _build_compat(tmp_path, titles, bodies)
    s = ix.searcher()

    kt = s.key_terms_from_text("title", titles[3], numterms=3)
    assert kt and all(isinstance(t, str) and sc > 0 for t, sc in kt)

    # docnum form pulls the stored title; engine more_like agrees
    got = s.more_like("title", docnum=3, numterms=3, limit=5)
    from whoosh_novo_ray.search.classify import more_like as engine_ml

    ref = engine_ml(
        s._router._searchers["title"], titles[3], numterms=3, limit=5
    )
    assert [h.docnum for h in got] == [int(d) for d in ref["doc_id"].to_pylist()]
    assert got[0]["title"] == titles[got[0].docnum]

    import pytest as _pytest

    with _pytest.raises(ValueError):
        s.more_like("body", docnum=3)  # body is not stored

    # Hit.more_like_this mirrors searcher.more_like on the stored field
    from whoosh_novo_ray.search.query import Term

    hit = s.search(Term("search", field="title"), limit=1)[0]
    via_hit = hit.more_like_this("title", numterms=3, limit=5)
    via_searcher = s.more_like("title", docnum=hit.docnum, numterms=3, limit=5)
    assert [h.docnum for h in via_hit] == [h.docnum for h in via_searcher]


def test_sortedby(ray_session, tmp_path):
    from whoosh_novo_ray.search.query import Term

    titles, bodies = _texts(30, 19), _texts(30, 20)
    ix = _build_compat(tmp_path, titles, bodies)
    s = ix.searcher()
    q = Term("value", field="body")
    matched = sorted(h.docnum for h in s.search(q, limit=None))

    asc = s.search(q, limit=None, sortedby="n")
    assert sorted(h.docnum for h in asc) == matched
    keys = [h.docnum % 7 for h in asc]
    assert keys == sorted(keys)
    # ties break by doc_id ascending within equal n
    for k in set(keys):
        grp = [h.docnum for h in asc if h.docnum % 7 == k]
        assert grp == sorted(grp)

    desc = s.search(q, limit=None, sortedby="n", reverse=True)
    assert [h.docnum % 7 for h in desc] == sorted(keys, reverse=True)
    # stored fields hydrate on the sorted path
    assert asc[0]["title"] == titles[asc[0].docnum]


def test_groups_and_facet_counts(ray_session, tmp_path):
    from whoosh_novo_ray.search.query import Term

    titles, bodies = _texts(30, 21), _texts(30, 22)
    ix = _build_compat(tmp_path, titles, bodies)
    s = ix.searcher()
    q = Term("value", field="body")
    matched = [h.docnum for h in s.search(q, limit=None)]

    grp = s.groups(q, "n")
    assert sorted(d for ds in grp.values() for d in ds) == sorted(matched)
    for k, ds in grp.items():
        assert all(d % 7 == int(k) for d in ds)
    cnt = s.facet_counts(q, "n")
    assert cnt == {k: len(ds) for k, ds in grp.items()}
    best = s.groups(q, "n", best_only=True)
    assert {k: ds[0] for k, ds in grp.items()} == best


def test_collapse_kwarg(ray_session, tmp_path):
    from whoosh_novo_ray.search.query import Term

    titles, bodies = _texts(30, 23), _texts(30, 24)
    ix = _build_compat(tmp_path, titles, bodies)
    s = ix.searcher()
    q = Term("value", field="body")
    full = s.search(q, limit=None)

    one_per = s.search(q, limit=None, collapse="n")
    # falsy keys (n == 0) are NEVER eliminated (reference CollapseCollector
    # quirk); every other key keeps exactly its best doc
    keys = [h.docnum % 7 for h in one_per if h.docnum % 7 != 0]
    assert len(keys) == len(set(keys))
    zeros_full = [h.docnum for h in full if h.docnum % 7 == 0]
    assert sorted(h.docnum for h in one_per if h.docnum % 7 == 0) == sorted(
        zeros_full
    )
    best_per_key: dict = {}
    for h in full:
        if h.docnum % 7 != 0:
            best_per_key.setdefault(h.docnum % 7, h.docnum)
    assert sorted(
        h.docnum for h in one_per if h.docnum % 7 != 0
    ) == sorted(best_per_key.values())

    two_per = s.search(q, limit=None, collapse="n", collapse_limit=2)
    from collections import Counter

    nonzero = Counter(h.docnum % 7 for h in two_per if h.docnum % 7 != 0)
    assert max(nonzero.values()) <= 2
    assert len(two_per) >= len(one_per)


def test_cleanup_gc(ray_session, tmp_path):
    import glob as _glob
    import os

    ix = C.create_in(str(tmp_path / "gc"), _schema())
    for b in range(4):
        with ix.writer() as w:
            w.add_document(title=f"gen {b} words here", tag=f"g{b}")
    froot = os.path.join(ix.root, "field=title")
    before = len(_glob.glob(os.path.join(froot, "gen-*")))
    ix.cleanup(keep=1)
    after = len(_glob.glob(os.path.join(froot, "gen-*")))
    assert after < before
    # still searchable after GC
    from whoosh_novo_ray.search.query import Term

    assert len(ix.searcher().search(Term("words", field="title"), limit=None)) == 4


def test_open_dir_roundtrip(ray_session, tmp_path):
    p = str(tmp_path / "c3")
    ix = C.create_in(p, _schema())
    with ix.writer() as w:
        w.add_document(title="hello world", tag="k")
    ix2 = C.open_dir(p)
    assert ix2.doc_count() == 1
    assert not C.exists_in(str(tmp_path / "missing"))


def test_empty_dataset_add_with_id_col(ray_session, tmp_path):
    # regression: ds.max(id_col) is None on an empty dataset and int(None)
    # used to raise mid-commit
    import pyarrow as pa
    import ray.data

    ix = C.create_in(str(tmp_path / "empty_ds"), _schema())
    empty = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "title": pa.array([], pa.string()),
            }
        )
    )
    w = ix.writer()
    w.add_document(title="real doc", tag="t0", n=1, flag=True)
    w.add_dataset(empty, id_col="doc_id")
    w.commit()
    with ix.searcher() as s:
        assert s.doc_count() == 1


def test_commit_after_cancel_raises(tmp_path):
    # a cancelled writer must not silently no-op later commits
    ix = C.create_in(str(tmp_path / "cancel_ix"), _schema())
    w = ix.writer()
    w.add_document(title="dropped", tag="t0", n=0, flag=False)
    w.cancel()
    with pytest.raises(RuntimeError, match="cancelled"):
        w.commit()


def test_explicit_cancel_inside_with_block(tmp_path):
    # `with` sugar must not commit (or raise) after an in-block cancel()
    ix = C.create_in(str(tmp_path / "cancel_with"), _schema())
    with ix.writer() as w:
        w.add_document(title="dropped", tag="t0", n=0, flag=False)
        w.cancel()
    with ix.searcher() as s:
        assert s.doc_count() == 0


# -- round-5 schema completion: SchemaClass / glob / IDLIST / NGRAM / vector --


def test_schemaclass_declarative_and_inheritance():
    class Parent(C.SchemaClass):
        path = C.ID(stored=True)
        date = C.DATETIME

    class Child(Parent):
        content = C.TEXT(stem=True)

    s = Child()
    assert type(s) is C.Schema
    assert s.names() == ["content", "date", "path"]
    assert s["path"].stored and s["content"].stem
    # kwargs extend the declared fields (reference SchemaClass.__new__)
    s2 = Child(tags=C.KEYWORD())
    assert "tags" in s2.fields
    # ensure_schema accepts the class itself, like reference create_in
    s3 = C.ensure_schema(Child)
    assert type(s3) is C.Schema and "content" in s3.fields
    # instances don't share field-spec objects with the class
    assert s.fields["path"] is not s2.fields["path"]


def test_schemaclass_parity_with_reference():
    pytest.importorskip("whoosh")
    from whoosh.fields import DATETIME, ID, TEXT, SchemaClass

    class Ref(SchemaClass):
        path = ID(stored=True)
        date = DATETIME
        content = TEXT

    r = Ref()
    class Mine(C.SchemaClass):
        path = C.ID(stored=True)
        date = C.DATETIME
        content = C.TEXT

    m = Mine()
    assert sorted(r.names()) == m.names()
    assert type(r).__name__ == "Schema" and type(m) is C.Schema


def test_dynamic_glob_fields_end_to_end(ray_session, tmp_path):
    schema = C.Schema(body=C.TEXT(stored=True))
    schema.add("*_tag", C.ID(stored=True), glob=True)
    ix = C.create_in(str(tmp_path / "dynix"), schema)
    with ix.writer() as w:
        w.add_document(body="first doc here", color_tag="Red")
        w.add_document(body="second doc here", shape_tag="Round")
    # unknown fields NOT matching the glob still raise
    with pytest.raises(ValueError):
        ix.writer().add_document(body="x", nope="y")
    # the glob materialized concrete fields, persisted to schema.json
    ix2 = C.open_dir(str(tmp_path / "dynix"))
    assert "color_tag" in ix2.schema.fields and "shape_tag" in ix2.schema.fields
    s = ix2.searcher()
    assert [h.docnum for h in s.search("color_tag:Red")] == [0]
    assert [h.docnum for h in s.search("shape_tag:Round")] == [1]
    # stored values round-trip (glob spec was stored=True)
    assert s.search("color_tag:Red")[0]["color_tag"] == "Red"


def test_dynamic_glob_parity_with_reference(ray_session, tmp_path):
    pytest.importorskip("whoosh")
    from whoosh import index as windex
    from whoosh import query as wq
    from whoosh.fields import ID, TEXT, Schema

    rs = Schema(body=TEXT(stored=True))
    rs.add("*_tag", ID(stored=True), glob=True)
    d = tmp_path / "refdyn"
    d.mkdir()
    rix = windex.create_in(str(d), rs)
    w = rix.writer()
    w.add_document(body="first doc here", color_tag="Red")
    w.add_document(body="second doc here", shape_tag="Round")
    w.commit()
    with rix.searcher() as s:
        ref_hits = [h.docnum for h in s.search(wq.Term("color_tag", "Red"))]

    schema = C.Schema(body=C.TEXT(stored=True))
    schema.add("*_tag", C.ID(stored=True), glob=True)
    cix = C.create_in(str(tmp_path / "minedyn"), schema)
    with cix.writer() as w:
        w.add_document(body="first doc here", color_tag="Red")
        w.add_document(body="second doc here", shape_tag="Round")
    mine_hits = [h.docnum for h in cix.searcher().search("color_tag:Red")]
    assert mine_hits == ref_hits == [0]


def test_idlist_field_parity(ray_session, tmp_path):
    pytest.importorskip("whoosh")
    from whoosh import index as windex
    from whoosh import query as wq
    from whoosh.fields import IDLIST, TEXT, Schema

    docs = [("alpha doc", "AA,bb; cc"), ("beta doc", "bb dd"), ("gamma", "EE")]
    d = tmp_path / "refidl"
    d.mkdir()
    rix = windex.create_in(
        str(d), Schema(body=TEXT(stored=True), ids=IDLIST(stored=True))
    )
    w = rix.writer()
    for b, i in docs:
        w.add_document(body=b, ids=i)
    w.commit()
    with rix.searcher() as s:
        ref = {
            tok: [h.docnum for h in s.search(wq.Term("ids", tok), limit=None)]
            for tok in ("AA", "bb", "cc", "dd", "EE", "aa")
        }

    cix = C.create_in(
        str(tmp_path / "mineidl"),
        C.Schema(body=C.TEXT(stored=True), ids=C.IDLIST(stored=True)),
    )
    with cix.writer() as w:
        for b, i in docs:
            w.add_document(body=b, ids=i)
    s = cix.searcher()
    for tok, want in ref.items():
        got = [h.docnum for h in s.search(f"ids:{tok}", limit=50)]
        assert got == want, (tok, got, want)


def test_ngram_facade_fields_parity(ray_session, tmp_path):
    pytest.importorskip("whoosh")
    from whoosh import index as windex
    from whoosh import query as wq
    from whoosh.fields import NGRAM, NGRAMWORDS, Schema

    docs = ["hello world", "help wanted", "whorl pattern"]
    d = tmp_path / "refng"
    d.mkdir()
    rix = windex.create_in(
        str(d), Schema(g=NGRAM(minsize=2, maxsize=4), gw=NGRAMWORDS(2, 4))
    )
    w = rix.writer()
    for t in docs:
        w.add_document(g=t, gw=t)
    w.commit()
    with rix.searcher() as s:
        ref_g = {
            sub: sorted(h.docnum for h in s.search(wq.Term("g", sub), limit=None))
            for sub in ("hel", "orl", "lo w")
        }
        ref_gw = {
            sub: sorted(h.docnum for h in s.search(wq.Term("gw", sub), limit=None))
            for sub in ("hel", "orl")
        }

    cix = C.create_in(
        str(tmp_path / "mineng"),
        C.Schema(g=C.NGRAM(minsize=2, maxsize=4), gw=C.NGRAMWORDS(2, 4)),
    )
    with cix.writer() as w:
        for t in docs:
            w.add_document(g=t, gw=t)
    s = cix.searcher()
    from whoosh_novo_ray.search.query import Term as _T

    for sub, want in ref_g.items():
        got = sorted(h.docnum for h in s.search(_T(sub, field="g"), limit=50))
        assert got == want, ("g", sub, got, want)
    for sub, want in ref_gw.items():
        got = sorted(h.docnum for h in s.search(_T(sub, field="gw"), limit=50))
        assert got == want, ("gw", sub, got, want)


def test_vector_field_key_terms_parity(ray_session, tmp_path):
    pytest.importorskip("whoosh")
    from whoosh import index as windex
    from whoosh.fields import TEXT, Schema

    titles, bodies = _texts(30, 31), _texts(30, 32)
    d = tmp_path / "refvec"
    d.mkdir()
    rix = windex.create_in(
        str(d), Schema(body=TEXT(stored=True, vector=True))
    )
    w = rix.writer()
    for b in bodies:
        w.add_document(body=b)
    w.commit()
    with rix.searcher() as s:
        ref_kt = [t for t, _ in s.key_terms([3, 7], "body", numterms=5)]

    cix = C.create_in(
        str(tmp_path / "minevec"),
        C.Schema(body=C.TEXT(stored=True, vector=True)),
    )
    with cix.writer() as w:
        for b in bodies:
            w.add_document(body=b)
    s = cix.searcher()
    got_kt = [t for t, _ in s.key_terms([3, 7], "body", numterms=5)]
    assert got_kt == ref_kt
    # vector path == re-analysis path (scores must agree, engine promise)
    via_text = s.key_terms_from_text("body", [bodies[3], bodies[7]], numterms=5)
    via_vec = s.key_terms([3, 7], "body", numterms=5)
    assert [t for t, _ in via_text] == [t for t, _ in via_vec]
    for (t1, s1), (t2, s2) in zip(via_text, via_vec):
        assert abs(s1 - s2) < 1e-9
    # more_like over the vector (no text re-analysis) returns ranked hits
    r = s.more_like("body", docnum=3, numterms=5, limit=5)
    assert len(r) >= 1


def test_vector_field_incremental_commits(ray_session, tmp_path):
    # vectors APPEND per commit; key_terms sees docs from both commits
    cix = C.create_in(
        str(tmp_path / "vecincr"),
        C.Schema(body=C.TEXT(stored=True, vector=True)),
    )
    with cix.writer() as w:
        w.add_document(body="spark engine index merge")
    with cix.refresh().writer() as w:
        w.add_document(body="window table scan batch")
    s = cix.refresh().searcher()
    kt0 = s.key_terms([0], "body", numterms=3)
    kt1 = s.key_terms([1], "body", numterms=3)
    assert kt0 and kt1
    assert {t for t, _ in kt0} <= {"spark", "engine", "index", "merge"}
    assert {t for t, _ in kt1} <= {"window", "table", "scan", "batch"}
