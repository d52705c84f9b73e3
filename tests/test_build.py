"""Index build pipeline: stats, manifest, resume, salting."""

import json
import os

import numpy as np
import pytest

from whoosh_novo_ray.analysis import StandardAnalyzer
from whoosh_novo_ray.index import Index, IndexConfig, build_index
from whoosh_novo_ray.search import Searcher, Term


def test_manifest_stats(built_index, pages_table):
    ana = StandardAnalyzer()
    texts = pages_table["text"].to_pylist()
    total = sum(len(ana(t)) for t in texts)
    assert built_index.doc_count == len(pages_table)
    assert built_index.total_field_length == total
    assert built_index.avg_field_length == total / len(pages_table)


def test_term_lookup_matches_brute_force(built_index, pages_table):
    ana = StandardAnalyzer()
    texts = pages_table["text"].to_pylist()
    ids = pages_table["doc_id"].to_numpy()
    term = "search"
    expect = [
        (int(d), toks.count(term))
        for d, toks in zip(ids, (ana(t) for t in texts))
        if term in toks
    ]
    s = Searcher(built_index)
    got_ids, got_tfs, _, _ = s.term_postings(term)
    assert got_ids.tolist() == [d for d, _ in expect]
    assert got_tfs.tolist() == [c for _, c in expect]


def test_resume_skips_completed_buckets(ray_session, pages_table, tmp_path):
    import ray.data

    out = str(tmp_path / "idx")
    docs = ray.data.from_arrow(pages_table.select(["doc_id", "text"]))
    cfg = IndexConfig(num_buckets=4)
    m1 = build_index(docs, out, cfg, lineage="L1")
    # delete one bucket file; resume should rebuild only that bucket
    victim = m1["buckets"][1]
    os.remove(os.path.join(out, victim["path"]))
    m2 = build_index(docs, out, cfg, lineage="L1", resume=True)
    assert m2["doc_count"] == m1["doc_count"]
    assert {b["bucket"] for b in m2["buckets"]} == {b["bucket"] for b in m1["buckets"]}
    assert m2["n_postings"] == m1["n_postings"]
    # full resume with nothing missing: no buckets rebuilt
    m3 = build_index(docs, out, cfg, lineage="L1", resume=True)
    assert m3["n_postings"] == m1["n_postings"]


def test_other_format_versions_are_refused_and_rebuilt(ray_session, pages_table, tmp_path):
    """``Index`` opens only the current format; a resumed build over an
    index of another format (format 3 last) rewrites every bucket instead
    of reusing it."""
    import ray.data

    from whoosh_novo_ray.index.build import FORMAT_VERSION, MANIFEST_NAME

    out = str(tmp_path / "idx")
    docs = ray.data.from_arrow(pages_table.select(["doc_id", "text"]))
    cfg = IndexConfig(num_buckets=4)
    m1 = build_index(docs, out, cfg, lineage="L1")
    assert m1["format_version"] == FORMAT_VERSION == 4
    man_path = os.path.join(out, MANIFEST_NAME)
    for old in (1, 2, None, 3):
        m = dict(m1, format_version=old)
        with open(man_path, "w") as f:
            json.dump(m, f)
        with pytest.raises(ValueError, match="Rebuild the index"):
            Index(out)
    segs = [os.path.join(out, b["path"]) for b in m1["buckets"] if b["path"]]
    assert len(segs) == 4
    before = [os.stat(seg).st_mtime_ns for seg in segs]
    m2 = build_index(docs, out, cfg, lineage="L1", resume=True)
    assert all(os.stat(s).st_mtime_ns != t for s, t in zip(segs, before))
    assert m2["format_version"] == FORMAT_VERSION
    assert Index(out).doc_count == m1["doc_count"]


def test_salted_heavy_terms_equivalent(ray_session, pages_table, tmp_path):
    """An index built with heavy-term salting returns identical postings."""
    import ray.data

    docs = ray.data.from_arrow(pages_table.select(["doc_id", "text"]))
    plain_dir = str(tmp_path / "plain")
    salted_dir = str(tmp_path / "salted")
    build_index(docs, plain_dir, IndexConfig(num_buckets=4), lineage="L")
    build_index(
        docs,
        salted_dir,
        IndexConfig(
            num_buckets=4, heavy_terms=("search", "the", "index"), salt_k=4, salt_shift=3
        ),
        lineage="L",
    )
    sp = Searcher(Index(plain_dir))
    ss = Searcher(Index(salted_dir))
    for t in ["search", "the", "index", "data"]:
        a = sp.term_postings(t)
        b = ss.term_postings(t)
        assert a[0].tolist() == b[0].tolist(), t
        assert a[1].tolist() == b[1].tolist(), t
        assert a[2].tolist() == b[2].tolist(), t
        ra = sp.search(Term(t), limit=10).to_pydict()
        rb = ss.search(Term(t), limit=10).to_pydict()
        assert ra == rb


def test_auto_heavy_detection_and_balance(ray_session, pages_table, tmp_path):
    """detect_heavy_terms finds stopword-like skew without declarations, the
    auto-salted build bounds bucket size, and results stay bit-identical."""
    import pyarrow as pa
    import ray.data

    from whoosh_novo_ray.index.build import detect_heavy_terms

    # corpus where 'qqfiller' hits every doc (stoplist off so it indexes)
    from whoosh_novo_ray.analysis import StandardAnalyzer

    texts = [
        f"qqfiller unique{i} qqfiller common{'ab'[i % 2]} qqfiller"
        for i in range(400)
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(400), pa.uint64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    docs = ray.data.from_arrow(tbl)
    cfg = IndexConfig(
        num_buckets=4, salt_k=4, salt_shift=3, analyzer=StandardAnalyzer(stoplist=None)
    )
    heavy = detect_heavy_terms(docs, cfg, sample_frac=1.0, heavy_df_frac=0.5)
    assert "qqfiller" in heavy
    assert all(h in {"qqfiller", "commona", "commonb"} for h in heavy)

    plain_dir = str(tmp_path / "plain")
    auto_dir = str(tmp_path / "auto")
    m_plain = build_index(docs, plain_dir, cfg, lineage="L")
    import dataclasses

    m_auto = build_index(
        docs,
        auto_dir,
        dataclasses.replace(cfg),
        lineage="L",
        auto_heavy={"sample_frac": 1.0, "heavy_df_frac": 0.5},
    )
    assert m_auto["config"]["heavy_terms"]  # detection populated the config

    # salting bounds the max bucket: the heavy term's 400 postings split
    max_plain = max(b["n_postings"] for b in m_plain["buckets"])
    max_auto = max(b["n_postings"] for b in m_auto["buckets"])
    assert max_plain >= 400  # one bucket held every 'qqfiller' posting
    assert max_auto < max_plain

    sp = Searcher(Index(plain_dir))
    sa = Searcher(Index(auto_dir))
    for t in ["qqfiller", "commona", "unique7", "absentzz"]:
        a = sp.term_postings(t)
        b = sa.term_postings(t)
        assert a[0].tolist() == b[0].tolist(), t
        assert a[1].tolist() == b[1].tolist(), t
        ra = sp.search(Term(t), limit=10).to_pydict()
        rb = sa.search(Term(t), limit=10).to_pydict()
        assert ra == rb, t


def test_heavy_probe_matches_brute_force(ray_session, tmp_path):
    """The heavy-term probe equals a pandas df count over the docs, ties at
    the ``max_terms`` cut broken by term, and runs its input pipeline once
    (a sampled run included: the sample size comes from the partials)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from whoosh_novo_ray.index.build import detect_heavy_terms

    n = 300
    # pairs tie on df: 150, 100, 75, 60, 50; the pair order is not the term order
    fruit = ["kiwi", "apple", "mango", "banana", "peach", "cherry", "plum",
             "grape", "olive", "lemon"]
    texts = [
        " ".join([f"u{d}x"] + [w for k, w in enumerate(fruit) if d % (k // 2 + 2) == 0])
        for d in range(n)
    ]
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": texts})
    cfg = IndexConfig(num_buckets=4, analyzer=StandardAnalyzer(stoplist=None))

    words = pd.Series([w for t in texts for w in set(t.split())])
    df = words.value_counts().rename_axis("term").reset_index(name="df")
    df = df[df["df"] >= max(2.0, 0.05 * n)].sort_values(
        ["df", "term"], ascending=[False, True]
    )
    for max_terms in (3, 5, 64):
        docs = ray.data.from_arrow(tbl).repartition(3)
        got = detect_heavy_terms(docs, cfg, doc_count=n, max_terms=max_terms)
        assert list(got) == df["term"].tolist()[:max_terms]
    assert list(got[:5]) == ["apple", "kiwi", "banana", "mango", "cherry"]

    runs = tmp_path / "runs"
    runs.mkdir()
    out = str(runs)

    def count_rows(batch):
        # one file per batch, holding its row count
        import uuid

        with open(os.path.join(out, uuid.uuid4().hex), "w") as f:
            f.write(str(len(batch)))
        return batch

    docs = ray.data.from_arrow(tbl).repartition(3).map_batches(
        count_rows, batch_format="pyarrow"
    )
    got = detect_heavy_terms(docs, cfg, doc_count=n, sample_frac=0.5)
    assert sum(int(f.read_text()) for f in runs.iterdir()) == n
    assert {"apple", "kiwi"} <= set(got)


def test_routing_rules_agree(ray_session, pages_table, tmp_path):
    """One term-routing rule: the tokenizer and the merge path both place a
    posting in ``bucket_for_terms``, which ``buckets_for_query_terms``
    inverts (salted heavy terms included); docmeta rows follow
    ``doc_shard_of``. Checked on the posting rows and on the built files."""
    import glob

    import pyarrow.parquet as pq
    import ray.data

    from whoosh_novo_ray.index.build import (
        DOCMETA_TERM,
        TokenizePostings,
        _bucketize_postings,
        bucket_for_terms,
        buckets_for_query_terms,
        doc_shard_of,
    )

    cfg = IndexConfig(
        num_buckets=8, heavy_terms=("search", "the", "index", "data"), salt_k=4, salt_shift=3
    )
    docs = pages_table.select(["doc_id", "text"])
    rows = TokenizePostings(cfg)(docs)
    merged = _bucketize_postings(cfg)(rows.drop_columns(["bucket"]))
    bucket = rows["bucket"].to_numpy()
    assert bucket.tolist() == merged["bucket"].to_numpy().tolist()

    terms = np.asarray(rows["term"].to_pylist(), object)
    ids = rows["doc_id"].to_numpy()
    meta = terms == DOCMETA_TERM
    assert meta.sum() == len(docs)
    assert (bucket[meta] == doc_shard_of(ids[meta], cfg.num_buckets)).all()
    post = ~meta
    assert (bucket[post] == bucket_for_terms(cfg, terms[post], ids[post])).all()
    assert len(set(bucket[terms == "search"].tolist())) > 1  # the salt split it
    pairs = sorted(set(zip(terms[post].tolist(), bucket[post].tolist())))
    for (t, b), bks in zip(pairs, buckets_for_query_terms(cfg, [t for t, _ in pairs])):
        assert b in bks, t

    out = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(docs), out, cfg, lineage="routing")
    n_meta = 0
    for f in glob.glob(os.path.join(out, "docmeta", "*.parquet")):
        b = int(os.path.basename(f).split("=")[1].split(".")[0])
        dm_ids = pq.read_table(f)["doc_id"].to_numpy()
        assert (doc_shard_of(dm_ids, cfg.num_buckets) == b).all()
        n_meta += len(dm_ids)
    assert n_meta == len(docs)
    for f in glob.glob(os.path.join(out, "segments", "*.parquet")):
        b = int(os.path.basename(f).split("=")[1].split(".")[0])
        seg_terms = pq.read_table(f, columns=["term"])["term"].to_pylist()
        for t, bks in zip(seg_terms, buckets_for_query_terms(cfg, seg_terms)):
            assert b in bks, t


def test_build_runs_the_input_pipeline_once(ray_session, pages_table, tmp_path):
    """Without a ``doc_count`` the build must not run a lazy input pipeline
    a second time just to count it: the manifest counts the docmeta rows,
    one per input doc, token-less docs included."""
    import uuid

    import pyarrow as pa
    import ray.data

    docs = pages_table.select(["doc_id", "text"]).slice(0, 90)
    texts = docs["text"].to_pylist()
    texts[:2] = ["", "the and of a"]  # no tokens; only stop words
    docs = docs.set_column(1, "text", pa.array(texts))
    calls = tmp_path / "calls"
    calls.mkdir()

    def mark(batch):
        (calls / uuid.uuid4().hex).touch()
        return batch

    blocks = [docs.slice(i, 30) for i in range(0, 90, 30)]
    lazy = ray.data.from_arrow(blocks).map_batches(mark, batch_format="pyarrow")
    man = build_index(lazy, str(tmp_path / "idx"), IndexConfig(num_buckets=4))
    assert len(os.listdir(calls)) == len(blocks)
    assert man["doc_count"] == len(docs)
    assert Index(str(tmp_path / "idx")).doc_count == len(docs)


def test_doc_slots_or_across_members_and_merge(ray_session, pages_table, tmp_path):
    """A 2-member MultiIndex ORs its members' ``doc_slots``, and a merge
    with deletes recomputes each term's mask from the postings it keeps."""
    import ray.data

    from whoosh_novo_ray.index.merge import merge_indexes
    from whoosh_novo_ray.index.multi import MultiIndex
    from whoosh_novo_ray.shuffle import key_hash

    def slot_mask(ids) -> int:
        m = 0
        for h in key_hash(np.asarray(ids, np.uint64)).tolist():
            m |= 1 << (h % 64)
        return m

    docs = pages_table.select(["doc_id", "text"])
    half = len(docs) // 2
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = IndexConfig(num_buckets=4, heavy_terms=("search",), salt_k=4, salt_shift=3)
    build_index(ray.data.from_arrow(docs.slice(0, half)), a, cfg, lineage="a")
    build_index(ray.data.from_arrow(docs.slice(half)), b, cfg, lineage="b")
    terms = ["search", "data", "index", "zzzznope"]
    multi = MultiIndex([a, b]).term_stats_and_slots(terms)
    ia, ib = Index(a).term_stats_and_slots(terms), Index(b).term_stats_and_slots(terms)
    for t in terms:
        assert multi[t][3] == ia[t][3] | ib[t][3], t
        assert multi[t][:3] == MultiIndex([a, b]).term_stats_many([t])[t]

    ids = docs["doc_id"].to_numpy()
    dels = ids[::3]
    merged = str(tmp_path / "merged")
    merge_indexes([a, b], merged, delete_doc_ids=dels, lineage="m")
    s = Searcher(Index(merged))
    got = Index(merged).term_stats_and_slots(terms)
    for t in terms:
        kept = s.term_postings(t)[0]
        assert not np.isin(kept, dels).any()
        assert got[t][3] == slot_mask(kept), t
    # the deletes dropped some slot of some term
    assert any(got[t][3] != multi[t][3] for t in terms)
