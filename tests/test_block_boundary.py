"""Posting blocks at their boundary.

A segment row stores no block counts or length offsets (block i starts at
posting i * block_size), and a row with ``df <= block_size`` stores its
skip lists empty. Terms of df 1, bs - 1, bs, bs + 1, 2 * bs and 2 * bs + 1,
with positions, chars and weights, are checked against a reference that
this file computes itself the way the older format stored it: per-block
counts, max doc ids, max weights and min length bytes. Then an index built
at that block size: its one-block rows' lists are empty on disk, and the
block-max WAND cursor loop, forced, returns the exhaustive top-k locally
and through the pool."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from whoosh_novo_ray.index.build import (
    BUCKET_LAYOUT,
    SERVING_LAYOUT,
    encode_bucket_table,
)
from whoosh_novo_ray.index.segment import TermColumns
from whoosh_novo_ray.search import query as Q

BS = 8
DFS = (1, BS - 1, BS, BS + 1, 2 * BS, 2 * BS + 1)
SKIP_LISTS = (
    "block_max_ids", "block_max_weights", "block_min_lens", "block_ids_off",
    "block_tfs_off", "block_pos_off", "block_chars_off",
)


def _postings(rng) -> pa.Table:
    """One term per df in ``DFS``: doc ids spread so their varints take
    several bytes, tfs 1-4 with as many positions and char spans, float32
    weights and random length bytes."""
    rows = {k: [] for k in ("term", "doc_id", "tf", "len_byte", "weight",
                            "positions", "chars")}
    for df in DFS:
        ids = np.sort(rng.choice(10**7, df, replace=False))
        for d in ids:
            tf = int(rng.integers(1, 5))
            pos = np.sort(rng.choice(300, tf, replace=False)).tolist()
            rows["term"].append(f"w{df:03d}")
            rows["doc_id"].append(int(d))
            rows["tf"].append(tf)
            rows["len_byte"].append(int(rng.integers(0, 256)))
            rows["weight"].append(float(np.float32(rng.uniform(0.5, 9.0))))
            rows["positions"].append(pos)
            rows["chars"].append([x for p in pos for x in (4 * p, 4 * p + 3)])
    return pa.table({
        "term": pa.array(rows["term"], pa.string()),
        "doc_id": pa.array(rows["doc_id"], pa.uint64()),
        "tf": pa.array(rows["tf"], pa.uint32()),
        "len_byte": pa.array(rows["len_byte"], pa.uint8()),
        "weight": pa.array(rows["weight"], pa.float64()),
        "positions": pa.array(rows["positions"], pa.list_(pa.int32())),
        "chars": pa.array(rows["chars"], pa.list_(pa.int32())),
    })


def _reference(tbl: pa.Table) -> dict[str, dict]:
    """Per term, what the older format stored: the postings in doc order,
    and per block its count, max doc id, max weight and min length byte."""
    out: dict[str, dict] = {}
    for r in sorted(tbl.to_pylist(), key=lambda r: (r["term"], r["doc_id"])):
        t = out.setdefault(r["term"], {k: [] for k in (
            "ids", "tfs", "weights", "lens", "positions", "chars")})
        t["ids"].append(r["doc_id"])
        t["tfs"].append(r["tf"])
        t["weights"].append(float(np.float32(r["weight"])))
        t["lens"].append(r["len_byte"])
        t["positions"].append(r["positions"])
        t["chars"].append([r["chars"][i : i + 2] for i in range(0, len(r["chars"]), 2)])
    for t in out.values():
        blocks = [slice(a, a + BS) for a in range(0, len(t["ids"]), BS)]
        t["block_counts"] = [len(t["ids"][b]) for b in blocks]
        t["block_max_ids"] = [t["ids"][b][-1] for b in blocks]
        t["block_max_weights"] = [max(t["weights"][b]) for b in blocks]
        t["block_min_lens"] = [min(t["lens"][b]) for b in blocks]
        t["blocks"] = blocks
    return out


@pytest.mark.parametrize("layout", [BUCKET_LAYOUT, SERVING_LAYOUT])
def test_rows_match_reference_blocks(layout):
    tbl = _postings(np.random.default_rng(5))
    ref = _reference(tbl)
    seg = encode_bucket_table(tbl, BS, True, layout)
    assert seg["term"].to_pylist() == sorted(ref)
    assert [r["df"] for r in seg.select(["df"]).to_pylist()] == list(DFS)
    assert ("lens_blob" in seg.column_names) == (layout == BUCKET_LAYOUT)
    cols = TermColumns(seg, BS)
    for i, term in enumerate(seg["term"].to_pylist()):
        want = ref[term]
        n_blocks = len(want["block_counts"])
        # on disk: one-block rows store every skip list empty
        for name in SKIP_LISTS:
            stored = seg[name][i].as_py()
            assert len(stored) == (n_blocks if n_blocks > 1 else 0), (term, name)
        # the serving layout stores no length bytes: a scoring actor gives
        # them from docmeta, as this row does
        lens = {} if layout == BUCKET_LAYOUT else {
            "lens_blob": np.array(want["lens"], np.uint8)
        }
        tr = cols.row(i, term, **lens)
        assert tr.n_blocks == n_blocks
        max_ids, max_weights, min_lens = tr.skip_table()
        assert max_ids.tolist() == want["block_max_ids"], term
        assert max_weights.tolist() == want["block_max_weights"], term
        assert min_lens.tolist() == want["block_min_lens"], term
        for b, blk in enumerate(want["blocks"]):
            ids, wts, lb = tr.decode_block(b)
            assert ids.dtype == np.uint64 and len(ids) == want["block_counts"][b]
            assert ids.tolist() == want["ids"][blk], (term, b)
            assert wts.tolist() == want["weights"][blk], (term, b)
            assert lb.tolist() == want["lens"][blk], (term, b)
        ids, wts, lb = tr.decode_all()
        assert ids.tolist() == want["ids"] and lb.tolist() == want["lens"]
        assert tr.decode_tfs().tolist() == want["tfs"]
        assert [p.tolist() for p in tr.decode_all_positions()] == want["positions"]
        spans, counts = tr.decode_all_chars()
        assert counts.tolist() == want["tfs"]
        assert spans.tolist() == [s for c in want["chars"] for s in c]


# -- an index at block size BS: its files, and forced WAND ----------------


@pytest.fixture(scope="module")
def bs_env(ray_session, tmp_path_factory):
    """Term ``wNNN`` in the first NNN docs, boosted, with positions and
    chars, at block size ``BS``; two serving shards."""
    import ray.data

    from whoosh_novo_ray.analysis import StandardAnalyzer
    from whoosh_novo_ray.index import IndexConfig, build_index
    from whoosh_novo_ray.index.docshard import build_serving_shards, serving_dir_for

    n = max(DFS) + 3
    texts = [
        " ".join(
            [f"w{df:03d}^{1 + i % 3}.5" for df in DFS if i < df for _ in range(1 + i % 2)]
            + ["filler"] * (i % 5)
        )
        for i in range(n)
    ]
    ids = np.arange(n) * 911 + 3
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    cfg = IndexConfig(
        num_buckets=2,
        block_size=BS,
        with_weights=True,
        with_chars=True,
        analyzer=StandardAnalyzer(
            pattern=r"[^\s^]+(\^[0-9.]+)?", stoplist=None, minsize=1, boost_delim="^"
        ),
    )
    out = str(tmp_path_factory.mktemp("bs") / "idx")
    build_index(ray.data.from_arrow(tbl).repartition(2), out, cfg, lineage="bs")
    build_serving_shards(out, num_shards=2)
    return out, serving_dir_for(out)


def test_one_block_rows_store_empty_lists(bs_env):
    from whoosh_novo_ray.index import Index

    n_rows = {1: 0, 2: 0}
    for d in bs_env:
        idx = Index(d)
        assert idx.cfg.block_size == BS
        for b in idx.manifest["buckets"]:
            if not b["path"]:
                continue
            tbl = pq.read_table(os.path.join(d, b["path"]))
            for row in tbl.to_pylist():
                n_blocks = -(-row["df"] // BS)
                for name in SKIP_LISTS:
                    assert len(row[name]) == (n_blocks if n_blocks > 1 else 0), name
                n_rows[min(n_blocks, 2)] += 1
    assert n_rows[1] and n_rows[2]
    dfs = Index(bs_env[0]).term_stats_many([f"w{df:03d}" for df in DFS])
    assert [v[0] for v in dfs.values()] == list(DFS)


def _assert_same_hits(got: pa.Table, want: pa.Table) -> None:
    """Same doc ids in the same order; scores equal up to the WAND loop's
    summation order."""
    assert got["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert got["score"].to_pylist() == pytest.approx(want["score"].to_pylist(), rel=1e-12)


TERM_SETS = [
    [f"w{df:03d}" for df in DFS],
    ["w001", "w017"],
    ["w008", "w009", "filler"],
    ["w016", "nosuchterm"],
]


@pytest.mark.parametrize("terms", TERM_SETS, ids=lambda t: "+".join(t))
def test_forced_wand_matches_exhaustive_locally(bs_env, terms):
    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.search.searcher import Searcher
    from whoosh_novo_ray.search.wand import searcher_wand_topk

    idx = Index(bs_env[0])
    for k in (1, 3, 30):
        want = Searcher(idx).search(Q.Or(*[Q.Term(t) for t in terms]), limit=k)
        got, stats = searcher_wand_topk(Searcher(idx), terms, k, strategy="wand")
        assert stats["strategy"] == "wand"
        _assert_same_hits(got, want)


def test_forced_wand_matches_exhaustive_through_the_pool(bs_env):
    """The actors hold no ``weight`` or ``lens_blob``: they score with the
    shipped global stats and their docmeta's length bytes."""
    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.search.searcher import Searcher
    from whoosh_novo_ray.state.score_pool import ScorePool

    idx = Index(bs_env[0])
    pool = ScorePool(bs_env[0], num_actors=2, num_shards=2)
    try:
        for terms in TERM_SETS:
            for k in (1, 3, 30):
                want = Searcher(idx).search(Q.Or(*[Q.Term(t) for t in terms]), limit=k)
                for strategy in ("wand", "auto"):
                    got, _ = pool.wand_topk(terms, k, strategy=strategy)
                    _assert_same_hits(got, want)
            for t in terms:
                want = Searcher(idx).search(Q.Term(t), limit=30)
                assert pool.search(Q.Term(t), limit=30).to_pydict() == want.to_pydict()
    finally:
        pool.shutdown()
