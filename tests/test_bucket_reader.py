"""The one posting read behind the serving build and the merge job.

``read_bucket_postings`` (index/merge.py) reads each (member, bucket) of
the inputs as one task. Its outputs are checked against the same postings
decoded, routed and encoded in this process, file by file."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from whoosh_novo_ray.analysis import StandardAnalyzer
from whoosh_novo_ray.index import Index, IndexConfig, build_index
from whoosh_novo_ray.index.build import (
    DOCMETA_TERM,
    SERVING_LAYOUT,
    doc_shard_of,
    encode_bucket_table,
)
from whoosh_novo_ray.index.docshard import build_serving_shards, serving_dir_for
from whoosh_novo_ray.index.merge import (
    DecodeSegmentRows,
    bucket_read_items,
    merge_indexes,
    read_bucket_postings,
)
from whoosh_novo_ray.testing.pages import synth_pages

NUM_SHARDS = 3
FULL = IndexConfig(
    num_buckets=4,
    with_positions=True,
    with_weights=True,
    with_chars=True,
    analyzer=StandardAnalyzer(boost_delim="^"),
)


def _docs(n: int = 300) -> pa.Table:
    """synth pages, every 5th word boosted (``word^2``) for the boost
    config; an empty doc and a stop-word-only doc ride along."""
    t = synth_pages(n=n, seed=11)
    texts = [
        " ".join(w + "^2" if i % 5 == 4 else w for i, w in enumerate(s.split()))
        for s in t["text"].to_pylist()
    ]
    texts[:2] = ["", "the and of"]
    return pa.table({"doc_id": t["doc_id"].cast(pa.uint64()), "text": texts})


def _decoded(members: list[str]) -> tuple[pa.Table, pa.Table]:
    """(posting rows, docmeta rows) of every bucket of ``members``,
    decoded in this process."""
    rows, dms = [], []
    for m in members:
        idx = Index(m)
        for b in idx.manifest["buckets"]:
            if b["path"]:
                seg = pq.read_table(os.path.join(m, b["path"]))
                rows.append(
                    DecodeSegmentRows(idx.cfg.with_positions)(seg, idx.cfg.block_size)
                )
            dm = os.path.join(m, "docmeta", f"bucket={b['bucket']:05d}.parquet")
            if os.path.exists(dm):
                dms.append(pq.read_table(dm))
    return pa.concat_tables(rows), pa.concat_tables(dms)


def _assert_serving_identity(members: list[str], out_dir: str) -> None:
    cfg = Index(members[0]).cfg
    postings, dm = _decoded(members)
    p_shard = doc_shard_of(postings["doc_id"], NUM_SHARDS)
    d_shard = doc_shard_of(dm["doc_id"], NUM_SHARDS)
    for k in range(NUM_SHARDS):
        want = encode_bucket_table(
            postings.filter(pa.array(p_shard == k)),
            cfg.block_size,
            cfg.with_positions,
            layout=SERVING_LAYOUT,
        )
        got = pq.read_table(os.path.join(out_dir, "segments", f"bucket={k:05d}.parquet"))
        assert got.equals(want), k
        want_dm = dm.filter(pa.array(d_shard == k)).sort_by("doc_id")
        got_dm = pq.read_table(os.path.join(out_dir, "docmeta", f"bucket={k:05d}.parquet"))
        assert got_dm.equals(want_dm), k


def _build(t: pa.Table, out: str, cfg: IndexConfig) -> str:
    import ray.data

    build_index(ray.data.from_arrow(t), out, cfg, lineage=os.path.basename(out))
    return out


@pytest.mark.parametrize("cfg", [IndexConfig(num_buckets=8), FULL], ids=["default", "full"])
def test_serving_build_matches_in_process(ray_session, tmp_path, cfg):
    path = _build(_docs(), str(tmp_path / "idx"), cfg)
    build_serving_shards(path, num_shards=NUM_SHARDS)
    _assert_serving_identity([path], serving_dir_for(path))


def test_two_member_serving_build_matches_in_process(ray_session, tmp_path):
    """Each member of a two-member generation gets its own serving layout,
    built from that member's postings only."""
    t = _docs()
    a = _build(t.slice(0, 150), str(tmp_path / "a"), FULL)
    b = _build(t.slice(150), str(tmp_path / "b"), FULL)
    for m in (a, b):
        build_serving_shards(m, num_shards=NUM_SHARDS)
        _assert_serving_identity([m], serving_dir_for(m))


def _sorted(t: pa.Table, keys: list[str]) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in keys])


def test_merge_with_deletes_is_inputs_minus_deleted(ray_session, tmp_path):
    t = _docs()
    a = _build(t.slice(0, 150), str(tmp_path / "a"), FULL)
    b = _build(t.slice(150), str(tmp_path / "b"), FULL)
    dels = np.arange(0, len(t), 7, dtype=np.uint64)
    merged = str(tmp_path / "m")
    man = merge_indexes([a, b], merged, delete_doc_ids=dels)
    assert man["doc_count"] == len(t) - len(dels)

    postings, dm = _decoded([a, b])
    live = pc.invert(pc.is_in(postings["doc_id"], pa.array(dels)))
    want = _sorted(postings.filter(live), ["term", "doc_id"])
    want_dm = dm.filter(pc.invert(pc.is_in(dm["doc_id"], pa.array(dels))))
    got, got_dm = _decoded([merged])
    assert _sorted(got, ["term", "doc_id"]).equals(want)
    assert _sorted(got_dm, ["doc_id"]).equals(_sorted(want_dm, ["doc_id"]))


def test_one_read_item_per_member_bucket(ray_session, tmp_path):
    t = _docs()
    cfg = IndexConfig(num_buckets=4)
    a = _build(t.slice(0, 150), str(tmp_path / "a"), cfg)
    b = _build(t.slice(150), str(tmp_path / "b"), cfg)
    items = bucket_read_items([a, b])
    want = [
        (os.path.join(m, bk["path"]) if bk["path"] else "",
         os.path.join(m, "docmeta", f"bucket={bk['bucket']:05d}.parquet"))
        for m in (a, b)
        for bk in Index(m).manifest["buckets"]
    ]
    assert [(i["segment"], i["docmeta"]) for i in items] == want
    ds = read_bucket_postings([a, b], cfg).materialize()
    assert ds.num_blocks() == len(items)
    terms = pa.concat_tables(ray_session.get(ds.to_arrow_refs()))["term"]
    assert pc.sum(pc.equal(terms, DOCMETA_TERM)).as_py() == len(t)
