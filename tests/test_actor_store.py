"""A scoring actor's decoded posting store (state/score_pool.py
``PinnedTable``).

Each pinned table's doc ids, tfs and weights are decoded once at pin time,
and its length bytes looked up in the shard's docmeta. Every row of every
pinned table is checked against ``TermRow`` decodes of the file's own
blobs, with the docmeta's length bytes: the whole posting list, each
block, the integer tfs and the positional payloads. Indexes with positions,
with weights, chars and per-occurrence boosts, and a two-member serving set
(two tables per shard) are covered. Last, the benchmark's query mix is
replayed against in-process actors, as ``scripts/probe_query.py`` does, and
every reply must be byte-identical to the reply of the same actor scoring
from TermRows decoded from the blobs on each query."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from whoosh_novo_ray.search import query as Q

N_DOCS = 3000
WORDS_PER_DOC = 4  # 12k distinct words: > 4096 rows (one row group) a shard
HEAVY = "hotterm"


def _word(n: int) -> str:
    return f"t{n:05d}"


def _build(out, texts, cfg, ids=None, shards=2):
    import ray.data

    from whoosh_novo_ray.index import build_index
    from whoosh_novo_ray.index.docshard import build_serving_shards, serving_dir_for

    ids = np.arange(len(texts)) if ids is None else ids
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    build_index(ray.data.from_arrow(tbl).repartition(2), out, cfg, lineage=os.path.basename(out))
    build_serving_shards(out, num_shards=shards)
    return out, serving_dir_for(out)


@pytest.fixture(scope="module")
def pos_env(ray_session, tmp_path_factory):
    """Positions; several row groups a shard; a heavy term of many blocks;
    doc ids spaced so their varints take several bytes."""
    from whoosh_novo_ray.index import IndexConfig

    texts = [
        " ".join(_word(d * WORDS_PER_DOC + j) for j in range(WORDS_PER_DOC))
        + f" {HEAVY} alpha {HEAVY}"
        for d in range(N_DOCS)
    ]
    out = str(tmp_path_factory.mktemp("store") / "pos")
    return _build(out, texts, IndexConfig(num_buckets=2), ids=np.arange(N_DOCS) * 977 + 5)


@pytest.fixture(scope="module")
def weights_env(ray_session, tmp_path_factory):
    """Weights in the tf slot, chars and per-occurrence boosts."""
    from whoosh_novo_ray.analysis import StandardAnalyzer
    from whoosh_novo_ray.index import IndexConfig

    n = 600
    texts = [
        f"{_word(d)}^{1 + d % 3}.5 {_word(d + 1)} {HEAVY}^2 alpha {_word(d % 50)} alpha"
        for d in range(n)
    ]
    cfg = IndexConfig(
        num_buckets=2,
        with_weights=True,
        with_chars=True,
        analyzer=StandardAnalyzer(
            pattern=r"[^\s^]+(\^[0-9.]+)?", stoplist=None, minsize=1, boost_delim="^"
        ),
    )
    out = str(tmp_path_factory.mktemp("store") / "wts")
    return _build(out, texts, cfg)


@pytest.fixture(scope="module")
def members_env(ray_session, tmp_path_factory):
    """Two doc-disjoint members, each with its own serving set: an actor
    pins two tables per shard."""
    from whoosh_novo_ray.index import IndexConfig

    base = tmp_path_factory.mktemp("store")
    dirs = []
    for m in range(2):
        texts = [
            f"{_word(d % 700)} {_word(d % 90 + 5000)} {HEAVY} m{m} {_word(d % 13)}"
            for d in range(800)
        ]
        ids = np.arange(800) + m * 10_000
        dirs.append(_build(str(base / f"m{m}"), texts, IndexConfig(num_buckets=2), ids=ids))
    return [p for p, _ in dirs], [s for _, s in dirs]


def _server(serving, shards=(0, 1)):
    from whoosh_novo_ray.state.score_pool import ScoreServer

    return ScoreServer.__ray_actor_class__(serving, list(shards))


def _docmeta_of(path: str) -> pa.Table:
    """The docmeta file of a serving segment file's shard."""
    serving = os.path.dirname(os.path.dirname(path))
    return pq.read_table(os.path.join(serving, "docmeta", os.path.basename(path)))


class _FileRows:
    """Every row of one serving segment file as a TermRow over its own
    blobs, with each posting's length byte taken from the shard's docmeta
    (the serving files store none)."""

    def __init__(self, path: str):
        from whoosh_novo_ray.index.segment import TermColumns, decode_postings

        self.table = pq.read_table(path)
        self.cols = TermColumns(self.table, 128)
        self.terms = self.table["term"].to_pylist()
        self.by_term: dict[str, list[int]] = {}
        for r, t in enumerate(self.terms):
            self.by_term.setdefault(t, []).append(r)
        dm = _docmeta_of(path)
        dm_ids = dm["doc_id"].to_numpy().astype(np.uint64)
        ids = decode_postings(self.table, 128)[0]
        at = np.searchsorted(dm_ids, ids)
        assert (dm_ids[at] == ids).all()
        self.lens = dm["len_byte"].to_numpy()[at]
        self.starts = np.cumsum([0] + self.table["df"].to_pylist())

    def row(self, r: int):
        a, b = self.starts[r], self.starts[r + 1]
        return self.cols.row(r, self.terms[r], copy=True, lens_blob=self.lens[a:b])


def _eq(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.astype(a.dtype).tobytes() and (
        a == b
    ).all()


@pytest.mark.parametrize("env", ["pos_env", "weights_env", "members_env"])
def test_store_matches_blob_decode_of_every_row(request, env):
    """For every row of every pinned table: the store's slices equal the
    file row's blob decode, whole and block by block, and the actor's
    TermRows (plain and positional) decode as the file row does."""
    _, serving = request.getfixturevalue(env)
    servings = serving if isinstance(serving, list) else [serving]
    srv = _server(servings if len(servings) > 1 else servings[0])
    assert len(srv._pinned) == 2 * len(servings)
    n_multi_block = 0
    for p in srv._pinned:
        f = _FileRows(p.blocks.path)
        assert p.blocks.n_groups >= (2 if env == "pos_env" else 1)
        assert len(p.starts) == len(f.terms) + 1
        assert int(p.starts[-1]) == len(p.ids) == len(p.tfs) == len(p.lens)
        assert (p.wts is not None) == (env == "weights_env")
        for r, term in enumerate(f.terms):
            ref = f.row(r)
            assert p.find(term) == f.by_term[term]
            ids, tf_slot, lens = p.postings(r)
            want = ref.decode_all()
            assert _eq(ids, want[0]) and ids.dtype == np.uint64, term
            assert np.array_equal(tf_slot, want[1]), term
            assert _eq(lens, want[2]), term
            a, b = p.starts[r], p.starts[r + 1]
            assert p.tfs.dtype == np.uint32
            assert np.array_equal(p.tfs[a:b], ref.decode_tfs()), term
            for lazy in (False, True):
                tr = p.row(r, term, lazy=lazy)
                assert tr.ids_blob is None and tr.tfs_blob is None and tr.wts_blob is None
                assert tr.n_blocks == ref.n_blocks
                for i in range(ref.n_blocks):
                    got, exp = tr.decode_block(i), ref.decode_block(i)
                    assert all(np.array_equal(x, y) for x, y in zip(got, exp)), (term, i)
                    assert got[0].dtype == np.uint64
                for x, y in zip(tr.decode_all(), want):
                    assert np.array_equal(x, y), term
            n_multi_block += ref.n_blocks > 1
            # positional payloads take their counts from the store's tfs
            if tr.pos_blob is not None:
                for x, y in zip(tr.decode_all_positions_flat(), ref.decode_all_positions_flat()):
                    assert np.array_equal(x, y), term
            if env == "weights_env":
                for x, y in zip(tr.decode_all_chars(), ref.decode_all_chars()):
                    assert np.array_equal(x, y), term
                for x, y in zip(
                    tr.decode_all_position_boosts(), ref.decode_all_position_boosts()
                ):
                    assert np.array_equal(x, y), term
    assert n_multi_block
    assert srv.pinned_bytes() >= sum(
        x.nbytes
        for p in srv._pinned
        for x in (p.starts, p.ids, p.tfs, p.lens, p.hashes, p.perm)
    ) + sum(p.wts.nbytes for p in srv._pinned if p.wts is not None)
    assert srv.pinned_bytes() >= sum(p.table.nbytes for p in srv._pinned)


@pytest.fixture(scope="module")
def pages_env(ray_session, tmp_path_factory):
    """400 synthetic pages with positions, two serving shards."""
    from whoosh_novo_ray.index import IndexConfig
    from whoosh_novo_ray.testing.pages import synth_pages

    t = synth_pages(n=400, seed=3)
    out = str(tmp_path_factory.mktemp("store") / "pages")
    return _build(out, t["text"], IndexConfig(num_buckets=4), ids=t["doc_id"].to_numpy())


def test_lengths_agree_across_layouts(pages_env):
    """Every posting's length byte in an actor's store equals its doc's
    docmeta ``len_byte`` and the term-bucket row's decode for the same
    (term, doc). A table pinned against docmeta that lacks one of its docs,
    or with another posting count than its manifest row, raises."""
    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.index.segment import _LRUCache
    from whoosh_novo_ray.state.score_pool import PinnedTable

    path, serving = pages_env
    srv = _server(serving)
    assert len(srv._pinned) == 2
    bucket_rows = Index(path).term_rows(
        sorted({t for p in srv._pinned for t in p.term.to_pylist()})
    )
    n_multi_block = n_postings = 0
    for p in srv._pinned:
        dm = _docmeta_of(p.blocks.path)
        dm_len = dict(zip(dm["doc_id"].to_pylist(), dm["len_byte"].to_pylist()))
        assert [dm_len[d] for d in p.ids.tolist()] == p.lens.tolist()
        for r, term in enumerate(p.term.to_pylist()):
            ids, _tf, lens = p.postings(r)
            by_doc = {}
            for row in bucket_rows[term]:
                b_ids, _b_tf, b_lens = row.decode_all()
                by_doc.update(zip(b_ids.tolist(), b_lens.tolist()))
            assert [by_doc[d] for d in ids.tolist()] == lens.tolist(), term
            n_multi_block += p.n_blocks(r) > 1
            n_postings += len(ids)
    assert n_multi_block and n_postings == sum(len(p.ids) for p in srv._pinned)

    p = srv._pinned[0]
    dm = _docmeta_of(p.blocks.path)
    dm_ids = dm["doc_id"].to_numpy().astype(np.uint64)
    dm_lens = dm["len_byte"].to_numpy()
    n = len(p.ids)
    same = PinnedTable(p.blocks.path, _LRUCache(4), 128, n, (dm_ids, dm_lens))
    assert same.lens.tolist() == p.lens.tolist()
    for victim in (p.ids[n // 2], p.ids.max(), p.ids.min()):
        keep = dm_ids != victim
        with pytest.raises(ValueError, match="missing from the shard's docmeta"):
            PinnedTable(p.blocks.path, _LRUCache(4), 128, n, (dm_ids[keep], dm_lens[keep]))
    for wrong in (n - 1, n + 1):
        with pytest.raises(ValueError, match="n_postings"):
            PinnedTable(p.blocks.path, _LRUCache(4), 128, wrong, (dm_ids, dm_lens))


def test_term_lookup_misses_and_collisions(pos_env):
    """An absent term finds no row, and a row is found only when its bytes
    equal the term's, even under an equal hash."""
    from whoosh_novo_ray.state import score_pool

    _, serving = pos_env
    p = _server(serving)._pinned[0]
    assert p.find("nosuchterm") == [] and p.find("") == []
    r = p.find(HEAVY)
    assert len(r) == 1
    real = score_pool._term_hash
    try:
        score_pool._term_hash = lambda t: real(HEAVY)
        assert p.find("hotterx") == [] and p.find(HEAVY) == r
    finally:
        score_pool._term_hash = real


def _blob_server(serving, shards):
    """An in-process actor that scores from TermRows over the files' blobs,
    decoded on each query (the decode a pinned table does once), budgeted
    or not."""
    from whoosh_novo_ray.search.searcher import Searcher
    from whoosh_novo_ray.state.score_pool import ShardSearcher, _GlobalStatsView

    srv = _server(serving, shards)
    files = [_FileRows(p.blocks.path) for p in srv._pinned]

    class BlobSearcher(ShardSearcher):
        term_postings = Searcher.term_postings

        def _with_weighting(self, weighting):
            sub = BlobSearcher(self.index, self._pinned, self._gstats, weighting)
            sub.files = self.files
            sub._term_cache = self._term_cache
            return sub

        def _rows(self, term, with_positions=False):
            key = (term, with_positions)
            if key not in self._term_cache:
                rows = []
                for f in self.files:
                    rows += [f.row(r) for r in f.by_term.get(term, [])]
                self._term_cache[key] = rows
            return self._term_cache[key]

    def make(universe, pinned, tables, gstats, weighting):
        view = _GlobalStatsView(srv._doc_count, srv._tfl, universe)
        s = BlobSearcher(view, pinned, gstats, weighting)
        s.files = tables
        return s

    srv._searcher = lambda gstats, weighting: make(
        srv._universe, srv._pinned, files, gstats, weighting
    )
    srv._table_searcher = lambda i, gstats, weighting: make(
        srv._table_universe[i], [srv._pinned[i]], [files[i]], gstats, weighting
    )
    return srv


@pytest.fixture(scope="module")
def bench_env(ray_session, tmp_path_factory):
    """The benchmark's corpus shape, query words and shard layout (4
    serving shards on two actors), at 400 pages."""
    from perfbench.inputs import MEAN_LEN, VOCAB, write_corpus
    from whoosh_novo_ray.index import IndexConfig
    from whoosh_novo_ray.testing.pages import synth_pages

    base = tmp_path_factory.mktemp("bench")
    corpus = write_corpus(400, 1, str(base / "input"), 2)
    t = synth_pages(n=400, seed=1, vocab_size=VOCAB, mean_len=MEAN_LEN)
    path, serving = _build(
        str(base / "idx"), t["text"], IndexConfig(num_buckets=8),
        ids=t["doc_id"].to_numpy(), shards=4,
    )
    return path, serving, corpus["words"]


@pytest.mark.parametrize("workload", ["head", "tail"])
def test_replies_byte_identical_on_the_benchmark_mix(bench_env, workload):
    """Replay the benchmark's query mix as the pool sends it (rewrite on
    the driver, global stats, one packed request per query, only the
    actors the pruning rule picks): each store-backed actor's reply is
    byte-identical to the blob-decoding actor's, budgeted or not."""
    from perfbench.inputs import QueryStream
    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.search.plan import rewrite
    from whoosh_novo_ray.search.qparser import QueryParser
    from whoosh_novo_ray.search.searcher import Searcher
    from whoosh_novo_ray.state.score_pool import (
        ScorePool,
        _pack_request,
        query_slots,
        shard_slots,
    )

    path, serving, words = bench_env
    assignments = [[0, 2], [1, 3]]
    servers = [_server(serving, ks) for ks in assignments]
    refs = [_blob_server(serving, ks) for ks in assignments]
    masks = [shard_slots(ks, 4) for ks in assignments]
    index = Index(path)
    lexicon = Searcher(index)
    qp = QueryParser()
    n_called = n_hits = 0
    for q in QueryStream(words, 1, workload).take(120):
        if q["cls"] == "wand":
            terms = q["terms"]
            q2 = Q.Or(*[Q.Term(t) for t in terms])
            requests = [
                _pack_request("wand", terms, 10, index.term_stats_many(terms), None, s)[0]
                for s in ("auto", "wand")
            ]
        else:
            q2 = rewrite(qp.parse(q["text"]), lexicon, index.term_stats_many)
            gstats = index.term_stats_many(ScorePool._stat_terms(None, q2))
            requests = [
                _pack_request("score", q2, 10, gstats, None, None, None, timelimit=t)[0]
                for t in (None, 60.0)
            ]
        slots = query_slots(
            q2, {t: v[3] for t, v in index.term_stats_and_slots(q2.terms()).items()}
        )
        for srv, ref, m in zip(servers, refs, masks):
            if not m & slots:
                continue
            n_called += 1
            for req in requests:
                got, want = srv.call(req), ref.call(req)
                assert got == want, (q, req)
                n_hits += len(got[0] if isinstance(got, tuple) else got) > 1
    assert n_called > 120 and n_hits > 60


def test_budgeted_two_member_search_matches_local(members_env):
    """Two tables per shard: pooled answers, budgeted per table or not,
    equal the local Searcher over both members."""
    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.index.multi import MultiIndex
    from whoosh_novo_ray.search.searcher import Searcher
    from whoosh_novo_ray.state.score_pool import ScorePool

    paths, servings = members_env
    srv = _server(servings)
    local = Searcher(MultiIndex(paths))
    stats_of = MultiIndex(paths).term_stats_many
    queries = [
        Q.Term(HEAVY),
        Q.Term(_word(3)),
        Q.Or(Q.Term("m0"), Q.Term(_word(5003))),
        Q.And(Q.Term(HEAVY), Q.Term("m1")),
        Q.Phrase([_word(7), _word(5007)]),
    ]
    for q in queries:
        want = local.search(q, limit=20).to_pydict()
        gstats = stats_of(ScorePool._stat_terms(None, q))
        for t in (None, 60.0):
            got = srv.score(q, 20, gstats, timelimit=t).to_pydict()
            assert got["doc_id"] == want["doc_id"], (q, t)
            np.testing.assert_allclose(got["score"], want["score"], rtol=1e-12)
    assert Index(paths[0]).doc_count + Index(paths[1]).doc_count == srv._doc_count


def test_merge_read_decodes_only_its_columns(weights_env):
    """The merge and serving-build read takes only the columns the decode
    uses, and decodes them to the same posting rows as a full read."""
    from whoosh_novo_ray.index.merge import DecodeSegmentRows, _row_groups

    path, _ = weights_env
    files = sorted(glob.glob(os.path.join(path, "segments", "*.parquet")))
    assert files
    for wp in (False, True):
        dec = DecodeSegmentRows(wp)
        for f in files:
            full = list(_row_groups(f))
            some = list(_row_groups(f, dec.columns))
            for a, b in zip(full, some):
                assert set(b.column_names) < set(a.column_names)
                assert not {"weight", "block_max_ids", "block_ids_off"} & set(b.column_names)
                assert dec(b, 128).equals(dec(a, 128))


def test_wand_block_stats_need_no_rows(members_env):
    """WAND's exhaustive branch takes its block stats from each pinned
    table's per-row block counts: over two tables a shard and a multi-block
    term they equal the sum over the actor's TermRows, and the actor builds
    no row to get them."""
    from whoosh_novo_ray.index.multi import MultiIndex
    from whoosh_novo_ray.search.searcher import Searcher

    paths, servings = members_env
    srv = _server(servings)
    terms = [HEAVY, "m0", _word(3), "absent"]
    gstats = MultiIndex(paths).term_stats_many(terms)
    _, stats = srv.wand(terms, 10, gstats)
    assert not [k for k in srv._tcache if k[0] in terms]  # no TermRow built
    s = srv._searcher(gstats, None)
    by_rows = [sum(r.n_blocks for r in s._rows(t)) for t in terms]
    assert [s.n_blocks(t) for t in terms] == by_rows
    assert s.n_blocks(HEAVY) > len(s._rows(HEAVY)) == 4  # several blocks a row
    assert stats == {
        "strategy": "exhaustive",
        "decoded_blocks": sum(by_rows),
        "skipped_blocks": 0,
        "total_blocks": sum(by_rows),
    }
    local = Searcher(MultiIndex(paths))
    assert local.n_blocks(HEAVY) == sum(r.n_blocks for r in local._rows(HEAVY)) > 1
