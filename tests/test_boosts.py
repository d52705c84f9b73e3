"""Per-posting boost weights: DelimitedAttributeFilter analog + weighted
Frequency-format scoring, rank/score parity vs the reference."""

import numpy as np
import pyarrow as pa
import pytest

from tests.conftest import HAVE_REFERENCE
from whoosh_novo_ray.analysis import StandardAnalyzer
from whoosh_novo_ray.index import Index, IndexConfig, build_index
from whoosh_novo_ray.search import Or, Searcher, Term


def _docs():
    texts = [
        "image render^2 file^0.5 view",
        "render file image^3 view^2",
        "plain words only here",
        "render^4 render file^2",
        "view view render^0.25 image",
        "file file file render",
    ]
    return pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.uint64()),
            "text": pa.array(texts, pa.string()),
        }
    )


@pytest.fixture(scope="module")
def boosted_index(ray_session, tmp_path_factory):
    import ray.data

    out = str(tmp_path_factory.mktemp("boostidx") / "idx")
    cfg = IndexConfig(
        analyzer=StandardAnalyzer(
            pattern=r"\S+", stoplist=None, minsize=1, boost_delim="^"
        ),
        with_weights=True,
        with_positions=False,
        num_buckets=4,
    )
    build_index(ray.data.from_arrow(_docs()), out, cfg, lineage="b")
    return Index(out)


def test_analyzer_boost_split():
    ana = StandardAnalyzer(pattern=r"\S+", stoplist=None, minsize=1, boost_delim="^")
    assert ana("image render^2 file^0.5") == ["image", "render", "file"]
    di, codes, uniq, pos, fl, boosts = ana.analyze_batch_coded(
        ["image render^2 file^0.5"]
    )
    got = dict(zip(uniq[codes].tolist(), boosts.tolist()))
    assert got == {"image": 1.0, "render": 2.0, "file": 0.5}


def test_weight_stats_are_boost_sums(boosted_index):
    s = Searcher(boosted_index)
    # doc3 'render^4 render' -> weight 5; doc0 2; doc1 1; doc4 0.25; doc5 1
    df, total_w, max_w = s.term_stats("render")
    assert df == 5
    assert total_w == pytest.approx(2 + 1 + 5 + 0.25 + 1)
    assert max_w == pytest.approx(5.0)
    ids, wts, lens, _ = s.term_postings("render")
    got = dict(zip(ids.tolist(), wts.tolist()))
    assert got == pytest.approx({0: 2.0, 1: 1.0, 3: 5.0, 4: 0.25, 5: 1.0})


@pytest.mark.skipif(not HAVE_REFERENCE, reason="reference not available")
def test_boosted_rank_parity(boosted_index, tmp_path):
    from whoosh import index as windex
    from whoosh import query as wq
    from whoosh.analysis import (
        DelimitedAttributeFilter,
        LowercaseFilter,
        RegexTokenizer,
    )
    from whoosh.fields import NUMERIC, TEXT, Schema

    ana = RegexTokenizer(r"\S+") | DelimitedAttributeFilter() | LowercaseFilter()
    schema = Schema(
        doc_id=NUMERIC(stored=True, bits=64),
        text=TEXT(analyzer=ana, phrase=False),
    )
    ix = windex.create_in(str(tmp_path), schema)
    w = ix.writer()
    t = _docs()
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        w.add_document(doc_id=did, text=text)
    w.commit()

    s = Searcher(boosted_index)
    with ix.searcher() as ws:
        for q_mine, q_ref in [
            (Term("render"), wq.Term("text", "render")),
            (Term("file"), wq.Term("text", "file")),
            (
                Or(Term("render"), Term("image")),
                wq.Or([wq.Term("text", "render"), wq.Term("text", "image")]),
            ),
        ]:
            r = ws.search(q_ref, limit=10, optimize=False)
            ref = [(h["doc_id"], round(r.score(i), 6)) for i, h in enumerate(r)]
            mine = s.search(q_mine, limit=10)
            got = list(
                zip(
                    mine["doc_id"].to_pylist(),
                    [round(x, 6) for x in mine["score"].to_pylist()],
                )
            )
            assert got == ref, (q_mine, got, ref)


def test_position_boosts_payload(ray_session, tmp_path_factory):
    """PositionBoosts-format payload: per-occurrence boosts stored parallel
    to positions and decodable per posting."""
    import ray.data

    out = str(tmp_path_factory.mktemp("pboost") / "idx")
    cfg = IndexConfig(
        analyzer=StandardAnalyzer(
            pattern=r"\S+", stoplist=None, minsize=1, boost_delim="^"
        ),
        with_weights=True,
        with_positions=True,
        num_buckets=2,
    )
    build_index(ray.data.from_arrow(_docs()), out, cfg, lineage="pb")
    idx = Index(out)
    rows = idx.term_rows(["render"], with_positions=True)["render"]
    per_doc = {}
    for r in rows:
        ids, _, _ = r.decode_all()
        flat, counts = r.decode_all_position_boosts()
        off = 0
        for d, c in zip(ids.tolist(), counts.tolist()):
            per_doc[d] = flat[off : off + c].tolist()
            off += c
    # doc3 = 'render^4 render' -> occurrence boosts [4.0, 1.0] in position order
    assert per_doc[3] == [4.0, 1.0]
    assert per_doc[0] == [2.0]
    assert per_doc[4] == [0.25]


def test_weighted_merge_preserves_weights(ray_session, tmp_path):
    """Merging weighted indexes must carry float weights and per-occurrence
    boosts through the decode->shuffle->encode cycle, not truncate them
    into integer tfs."""
    import ray.data

    from whoosh_novo_ray.index.merge import merge_indexes

    cfg = IndexConfig(
        analyzer=StandardAnalyzer(
            pattern=r"\S+", stoplist=None, minsize=1, boost_delim="^"
        ),
        with_weights=True,
        with_positions=True,
        num_buckets=4,
    )
    t = _docs()
    base = tmp_path
    whole, a, b = str(base / "whole"), str(base / "a"), str(base / "b")
    build_index(ray.data.from_arrow(t), whole, cfg, lineage="w")
    build_index(ray.data.from_arrow(t.slice(0, 3)), a, cfg, lineage="a")
    build_index(ray.data.from_arrow(t.slice(3)), b, cfg, lineage="b")
    merged = str(base / "m")
    merge_indexes([a, b], merged, lineage="m")
    sw, sm = Searcher(Index(whole)), Searcher(Index(merged))
    for term in ["render", "file", "image", "view"]:
        aw = sw.term_postings(term)
        am = sm.term_postings(term)
        assert aw[0].tolist() == am[0].tolist(), term
        assert aw[1].tolist() == am[1].tolist(), term  # float weights intact
        assert sw.search(Term(term), limit=10).to_pydict() == sm.search(
            Term(term), limit=10
        ).to_pydict(), term
    # per-occurrence boosts survive too
    rw = Index(whole).term_rows(["render"], with_positions=True)["render"]
    rm = Index(merged).term_rows(["render"], with_positions=True)["render"]

    def flatboosts(rows):
        out = {}
        for r in rows:
            ids, _, _ = r.decode_all()
            flat, counts = r.decode_all_position_boosts()
            off = 0
            for d, c in zip(ids.tolist(), counts.tolist()):
                out[d] = flat[off : off + c].tolist()
                off += c
        return out

    assert flatboosts(rw) == flatboosts(rm)


def test_weights_default_to_tf(ray_session, tmp_path, pages_table):
    """with_weights without boosts must score identically to the plain
    build (weight == tf)."""
    import ray.data

    docs = ray.data.from_arrow(pages_table.select(["doc_id", "text"]))
    plain = str(tmp_path / "plain")
    weighted = str(tmp_path / "weighted")
    build_index(docs, plain, IndexConfig(num_buckets=4), lineage="p")
    build_index(
        docs, weighted, IndexConfig(num_buckets=4, with_weights=True), lineage="w"
    )
    sp, sw = Searcher(Index(plain)), Searcher(Index(weighted))
    for term in ["search", "data", "the"]:
        a = sp.search(Term(term), limit=10).to_pydict()
        b = sw.search(Term(term), limit=10).to_pydict()
        assert a == b, term
