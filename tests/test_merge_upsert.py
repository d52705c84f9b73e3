"""Merge/compaction job, latest-wins upsert, docmeta, Every-from-index."""

import numpy as np
import pyarrow as pa
import pytest

from whoosh_novo_ray.index import Index, IndexConfig, build_index
from whoosh_novo_ray.index.merge import merge_indexes
from whoosh_novo_ray.ops.upsert import latest_by_key
from whoosh_novo_ray.search import Every, AndNot, Searcher, Term
from whoosh_novo_ray.testing.pages import synth_pages


@pytest.fixture(scope="module")
def split_indexes(ray_session, tmp_path_factory):
    """The same corpus built (a) whole and (b) as two halves (disjoint ids)."""
    import ray.data

    pages = synth_pages(n=600, seed=3)
    base = tmp_path_factory.mktemp("merge")
    cfg = IndexConfig(num_buckets=4)
    whole = str(base / "whole")
    a = str(base / "a")
    b = str(base / "b")
    tbl = pages.select(["doc_id", "text"])
    build_index(ray.data.from_arrow(tbl), whole, cfg, lineage="w")
    build_index(ray.data.from_arrow(tbl.slice(0, 300)), a, cfg, lineage="a")
    build_index(ray.data.from_arrow(tbl.slice(300)), b, cfg, lineage="b")
    return whole, a, b, pages


def test_docmeta_and_every(split_indexes):
    whole, *_rest, pages = split_indexes
    idx = Index(whole)
    dm = idx.doc_meta()
    assert len(dm) == 600
    assert dm["doc_id"].to_pylist() == sorted(pages["doc_id"].to_pylist())
    s = Searcher(idx)  # NO doc_ids passed: universe from docmeta
    r = s.search(Every(), limit=None)
    assert len(r) == 600
    rn = s.search(AndNot(Every(), Term("search")), limit=None)
    hits = s.search(Term("search"), limit=None)
    assert len(rn) == 600 - len(hits)


def test_merge_equals_whole(split_indexes, tmp_path):
    whole, a, b, pages = split_indexes
    merged_dir = str(tmp_path / "merged")
    man = merge_indexes([a, b], merged_dir, lineage="m")
    wi, mi = Index(whole), Index(merged_dir)
    assert mi.doc_count == wi.doc_count
    assert mi.total_field_length == wi.total_field_length
    sw, sm = Searcher(wi), Searcher(mi)
    for t in ["search", "data", "the", "index", "page"]:
        pw = sw.term_postings(t)
        pm = sm.term_postings(t)
        assert pw[0].tolist() == pm[0].tolist(), t
        assert pw[1].tolist() == pm[1].tolist(), t
        assert pw[2].tolist() == pm[2].tolist(), t
        rw = sw.search(Term(t), limit=10).to_pydict()
        rm = sm.search(Term(t), limit=10).to_pydict()
        assert rw == rm, t
    # positions survive the merge
    from whoosh_novo_ray.search import Phrase

    assert (
        sw.search(Phrase(["search", "data"]), limit=None).to_pydict()
        == sm.search(Phrase(["search", "data"]), limit=None).to_pydict()
    )


def test_merge_with_deletes(split_indexes, tmp_path):
    whole, a, b, pages = split_indexes
    out = str(tmp_path / "deleted")
    dels = np.array([0, 1, 2, 3, 4], np.uint64)
    merge_indexes([a, b], out, delete_doc_ids=dels, lineage="d")
    mi = Index(out)
    assert mi.doc_count == 600 - 5
    s = Searcher(mi)
    for t in ["search", "data"]:
        ids, *_ = s.term_postings(t)
        assert not np.isin(dels, ids).any()


def test_merge_docmeta_only_buckets(ray_session, tmp_path):
    """Regression (ADVICE r01, high): with a tiny vocab most buckets hold
    ONLY docmeta rows; their n_docs_meta must survive into the manifest or a
    merge (doc_count derived from sum(n_docs_meta)) undercounts doc_count,
    corrupting idf / avg_field_length on the merged generation."""
    import ray.data

    cfg = IndexConfig(num_buckets=8)
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(40, dtype=np.uint64)),
            "text": ["zebra"] * 40,  # 1-term vocab -> 1 segment bucket
        }
    )
    base = tmp_path
    a = str(base / "a")
    b = str(base / "b")
    build_index(ray.data.from_arrow(tbl.slice(0, 20)), a, cfg, lineage="a")
    build_index(ray.data.from_arrow(tbl.slice(20)), b, cfg, lineage="b")
    # the direct build records n_docs_meta in stats-only rows too
    ia = Index(a)
    assert sum(bk["n_docs_meta"] for bk in ia.manifest["buckets"]) == 20
    merged = str(base / "m")
    man = merge_indexes([a, b], merged, lineage="m")
    assert man["doc_count"] == 40
    mi = Index(merged)
    assert mi.doc_count == 40
    assert len(mi.doc_meta()) == 40
    s = Searcher(mi)
    r = s.search(Term("zebra"), limit=None)
    assert len(r) == 40


def test_latest_by_key(ray_session, monkeypatch):
    import ray.data

    from whoosh_novo_ray import shuffle

    # one shard: every key meets in the same reducer call
    monkeypatch.setattr(shuffle, "N_SHARDS", 1)
    tbl = pa.table(
        {
            "url": ["a", "b", "a", "c", "b", "a"],
            "ts": [1, 5, 9, 2, 5, 9],
            "row": [0, 1, 2, 3, 4, 5],
        }
    )
    out = latest_by_key(ray.data.from_arrow(tbl), key="url", ts="ts", tiebreak="row")
    got = sorted(out.take_all(), key=lambda r: r["url"])
    # a: ts 9 twice -> tiebreak smallest row (2); b: ts 5 twice -> row 1
    assert [(r["url"], r["row"]) for r in got] == [("a", 2), ("b", 1), ("c", 3)]


def test_upsert_then_build(ray_session, tmp_path):
    """The url-keyed latest-wins dedup feeding an index build (the reference's
    update_document flow at batch scale)."""
    import ray.data

    pages = synth_pages(n=300, seed=5, dup_frac=0.1)
    ds = ray.data.from_arrow(pages)
    deduped = latest_by_key(ds, key="url", ts="warc_ts", tiebreak="doc_id")
    kept = deduped.count()
    n_urls = len(set(pages["url"].to_pylist()))
    assert kept == n_urls
    out = str(tmp_path / "idx")
    man = build_index(
        deduped.map_batches(
            lambda b: b.select(["doc_id", "text"]), batch_format="pyarrow"
        ),
        out,
        IndexConfig(num_buckets=4),
        lineage="u",
    )
    assert man["doc_count"] == n_urls
