"""Open-once term-block index (index/segment.py ``_TermBlocks``).

Every lookup is checked against a brute-force oracle: the whole segment
file read with ``pq.read_table`` and filtered in Python. The index spans
several 4k row groups per bucket and salts a heavy term across buckets, so
lookups cross row-group and bucket boundaries. A no-scan contract then
patches ``pq.read_table`` to raise: cold term, prefix and phrase lookups
must still answer, through ``Index`` and through an in-process
``ScoreServer``. Last, every field of every ``TermRow`` that ``TermColumns``
builds is checked against ``to_pylist()`` of the same file row, along with
which rows are views of a pinned table and which are copies."""

import glob
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
    tb = _TermBlocks(f, _LRUCache(2), 128)
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
    n_groups = sum(p.blocks.n_groups for p in srv._pinned)
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


# -- TermColumns: every TermRow field against a brute-force row -------------


@pytest.fixture(scope="module")
def full_env(ray_session, tmp_path_factory):
    """Positions, weights, chars and per-occurrence boosts, with a salted
    heavy term, plus its serving shards."""
    import ray.data

    from whoosh_novo_ray.analysis import StandardAnalyzer
    from whoosh_novo_ray.index import IndexConfig, build_index
    from whoosh_novo_ray.index.docshard import build_serving_shards, serving_dir_for

    n = 600
    texts = [
        f"{_word(d)}^{1 + d % 3}.5 {_word(d + 1)} {HEAVY}^2 alpha {_word(d % 50)}"
        for d in range(n)
    ]
    tbl = pa.table({"doc_id": pa.array(np.arange(n), pa.int64()), "text": texts})
    out = str(tmp_path_factory.mktemp("full") / "idx")
    cfg = IndexConfig(
        num_buckets=2,
        heavy_terms=(HEAVY,),
        salt_k=4,
        salt_shift=4,
        with_weights=True,
        with_chars=True,
        analyzer=StandardAnalyzer(
            pattern=r"[^\s^]+(\^[0-9.]+)?", stoplist=None, minsize=1, boost_delim="^"
        ),
    )
    build_index(ray.data.from_arrow(tbl).repartition(2), out, cfg, lineage="full")
    build_serving_shards(out, num_shards=2)
    return out, serving_dir_for(out)


def _row_fields() -> list[str]:
    import dataclasses

    from whoosh_novo_ray.index.segment import TermRow

    return [f.name for f in dataclasses.fields(TermRow) if not f.name.startswith("_")]


def _assert_row(tr, want: dict, names) -> None:
    """Every TermRow field equals the brute-force row; a field whose column
    is not in ``names`` is None."""
    from whoosh_novo_ray.index.segment import _LIST_DTYPES

    assert tr.term == want["term"] and tr.block_size == 128
    for name in _row_fields():
        got = getattr(tr, name)
        if name in ("term", "block_size"):
            continue
        if name not in names:
            assert got is None, name
        elif name in _LIST_DTYPES:
            assert got.dtype == _LIST_DTYPES[name], name
            assert got.tolist() == want[name], name
        elif name.endswith("_blob"):
            assert got.dtype == np.uint8, name
            assert got.tobytes() == want[name], name
        else:
            assert got == want[name] and type(got) is type(want[name]), name


def _file_rows(path: str) -> list[dict]:
    return pq.read_table(path).to_pylist()


def _views(tr) -> list[np.ndarray]:
    return [
        v for v in (getattr(tr, n) for n in _row_fields())
        if isinstance(v, np.ndarray) and v.size
    ]


def _buffers(tbl: pa.Table, name: str) -> list[np.ndarray]:
    return [
        np.frombuffer(b, np.uint8)
        for chunk in tbl[name].chunks
        for arr in ([chunk.values] if pa.types.is_list(chunk.type) else [chunk])
        for b in arr.buffers()
        if b is not None and b.size
    ]


def _cached_views(cache) -> list[np.ndarray]:
    from whoosh_novo_ray.index.segment import TermColumns

    out = []
    for c in cache._d.values():
        if isinstance(c, TermColumns):
            for scalars, lists, blobs in c._views:
                out += [v for _n, v in scalars] + [v for _n, v, *_ in lists]
                out += [d for _n, d, _o in blobs]
    return out


@pytest.mark.parametrize("env", ["blocks_env", "full_env"])
def test_index_rows_and_stats_match_every_file_row(request, env):
    from whoosh_novo_ray.index import Index

    path, _ = request.getfixturevalue(env)
    by_term: dict[str, list[dict]] = {}
    for f in sorted(_segment_files(path)):
        for want in _file_rows(f):
            by_term.setdefault(want["term"], []).append(want)
    assert len(by_term[HEAVY]) >= 2
    if env == "full_env":
        assert {"wts_blob", "pos_blob", "chars_blob", "pboosts_blob"} <= set(
            by_term[HEAVY][0]
        )
    terms = list(by_term)
    idx = Index(path)
    rows = idx.term_rows(terms, with_positions=True, with_chars=True)
    stats = idx.term_stats_many(terms)
    cached = _cached_views(idx._block_cache)
    assert cached
    for t, wants in by_term.items():
        got = sorted(rows[t], key=lambda r: r.ids_blob.tobytes())
        wants = sorted(wants, key=lambda r: r["ids_blob"])
        assert len(got) == len(wants), t
        for tr, want in zip(got, wants):
            _assert_row(tr, want, want.keys())
            # copied out of the row-group cache
            assert not any(
                np.may_share_memory(v, c) for v in _views(tr) for c in cached
            ), t
        assert stats[t] == (
            sum(w["df"] for w in by_term[t]),
            sum(w["weight"] for w in by_term[t]),
            max(w["max_weight"] for w in by_term[t]),
        ), t


@pytest.mark.parametrize("env", ["blocks_env", "full_env"])
def test_pinned_rows_are_views_of_every_file_row(request, env):
    """A scoring actor pins each table's scoring columns without the ids,
    tfs and wts blobs (it decodes them at pin time) and without
    ``block_ids_off``/``block_tfs_off``. A pinned row's fields are views of
    the pinned table; the lazy positional row adds copies of its lazy
    columns, and decodes as the file row does (with the length bytes of
    the shard's docmeta, which the serving files do not store)."""
    from whoosh_novo_ray.index.segment import TermColumns, decode_postings
    from whoosh_novo_ray.state.score_pool import _PIN_COLUMNS, ScoreServer

    _, serving = request.getfixturevalue(env)
    srv = ScoreServer.__ray_actor_class__(serving, [0, 1])
    assert len(srv._pinned) == 2
    for k, p in zip(srv._table_shards, srv._pinned):
        tbl, tb = p.table, p.blocks
        assert p.lazy_cols
        wants = _file_rows(tb.path)
        file_tbl = pq.read_table(tb.path)
        file_cols = TermColumns(file_tbl, 128)
        dm = pq.read_table(os.path.join(serving, "docmeta", f"bucket={k:05d}.parquet"))
        dm_ids = dm["doc_id"].to_numpy().astype(np.uint64)
        ids = decode_postings(file_tbl, 128)[0]
        lens = dm["len_byte"].to_numpy()[np.searchsorted(dm_ids, ids)]
        assert (dm_ids[np.searchsorted(dm_ids, ids)] == ids).all()
        starts = np.cumsum([0] + [w["df"] for w in wants])
        assert len(wants) == len(tbl)
        pinned = set(tbl.column_names)
        assert pinned == set(_PIN_COLUMNS)
        for r, want in enumerate(wants):
            tr = p.cols.row(r, want["term"])
            _assert_row(tr, want, pinned)
            for name in pinned - {"term"}:
                v = getattr(tr, name)
                if isinstance(v, np.ndarray) and v.size:
                    assert any(
                        np.shares_memory(v, b) for b in _buffers(tbl, name)
                    ), name
            # the lazy positional path: pinned views plus copied lazy columns
            lazy = p.row(r, want["term"], lazy=True)
            _assert_row(lazy, want, pinned | set(p.lazy_cols))
            ref = file_cols.row(
                r, want["term"], lens_blob=lens[starts[r] : starts[r + 1]]
            )
            for got, exp in zip(lazy.decode_all(), ref.decode_all()):
                assert got.tolist() == exp.tolist(), want["term"]
            assert lazy.decode_tfs().tolist() == ref.decode_tfs().tolist()
            cached = _cached_views(srv._block_cache)
            for name in p.lazy_cols:
                v = getattr(lazy, name)
                if v.size:
                    assert not any(np.may_share_memory(v, c) for c in cached), name


# -- doc_slots: the per-term doc-slot mask the score pool prunes with --------


def _slot_mask(ids) -> int:
    """Brute force: bit ``key_hash(doc_id) % 64`` of every posting."""
    from whoosh_novo_ray.shuffle import key_hash

    m = 0
    for h in key_hash(np.asarray(ids, np.uint64)).tolist():
        m |= 1 << (h % 64)
    return m


@pytest.mark.parametrize("env", ["blocks_env", "full_env"])
def test_doc_slots_match_decoded_postings(request, env):
    """Every row of the term-bucket files: ``doc_slots`` is the OR of its
    postings' slot bits, and gives each shard count dividing 64 the term's
    exact shard set. ``term_stats_and_slots`` ORs a salted term's rows.
    The serving files carry no ``doc_slots``; every row of serving shard
    ``k`` decodes only to docs that ``doc_shard_of`` sends to shard ``k``."""
    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.index.build import doc_shard_of
    from whoosh_novo_ray.index.segment import TermColumns, decode_postings

    path, serving = request.getfixturevalue(env)
    by_term: dict[str, int] = {}
    for f in _segment_files(path):
        tbl = pq.read_table(f)
        assert "min_id" not in tbl.column_names
        cols = TermColumns(tbl, 128)
        for r, (t, slots) in enumerate(
            zip(tbl["term"].to_pylist(), tbl["doc_slots"].to_pylist())
        ):
            ids = cols.row(r, t).decode_all()[0]
            assert slots == _slot_mask(ids), t
            for n in (2, 4, 16, 64):
                want = set(doc_shard_of(ids, n).tolist())
                assert {s % n for s in range(64) if slots >> s & 1} == want
            by_term[t] = by_term.get(t, 0) | slots
    got = Index(path).term_stats_and_slots(list(by_term) + ["t99999"])
    assert got["t99999"] == (0, 0.0, 0.0, 0)
    assert {t: v[3] for t, v in got.items() if t != "t99999"} == by_term
    ids = np.arange(N_DOCS if env == "blocks_env" else 600)
    assert by_term[HEAVY] == _slot_mask(ids)

    sman = Index(serving).manifest
    n = sman["num_shards"]
    seen = set()
    for b in sman["buckets"]:
        if not b["path"]:
            continue
        tbl = pq.read_table(os.path.join(serving, b["path"]))
        assert "doc_slots" not in tbl.column_names
        all_ids = decode_postings(tbl, 128)[0]
        ends = np.cumsum(tbl["df"].to_numpy())
        assert ends[-1] == len(all_ids)
        for t, ids in zip(tbl["term"].to_pylist(), np.split(all_ids, ends[:-1])):
            assert set(doc_shard_of(ids, n).tolist()) == {b["bucket"]}, t
        seen.add(b["bucket"])
    assert seen == set(range(n))


# -- format 3: what a segment file stores, and how it is written -------------


def _layout_files(path: str, serving: str) -> list[tuple[str, str]]:
    return [("bucket", f) for f in _segment_files(path)] + [
        ("serving", f) for f in _segment_files(serving)
    ]


@pytest.mark.parametrize("env", ["blocks_env", "full_env"])
def test_segment_columns(request, env):
    """Neither layout stores ``max_len_byte``, block counts or length
    offsets; only the term-bucket files store ``doc_slots``, ``weight`` and
    ``lens_blob`` (a scoring actor reads none of them)."""
    path, serving = request.getfixturevalue(env)
    for layout, f in _layout_files(path, serving):
        names = set(pq.ParquetFile(f).schema_arrow.names)
        assert not {"max_len_byte", "block_counts", "block_lens_off"} & names, f
        for col in ("doc_slots", "weight", "lens_blob"):
            assert (col in names) == (layout == "bucket"), (f, col)
        assert {"term", "df", "max_weight", "ids_blob", "tfs_blob"} <= names


def _n_varints(blob: bytes) -> int:
    return int((np.frombuffer(blob, np.uint8) < 0x80).sum())


@pytest.mark.parametrize("env", ["blocks_env", "full_env"])
def test_position_blobs_hold_one_varint_per_occurrence(request, env):
    """Every row of both layouts: ``pos_blob`` is ``sum(tf)`` varints (the
    deltas, no per-posting count) and ``chars_blob`` is ``2 * sum(tf)``."""
    from whoosh_novo_ray.codec import varint_decode

    path, serving = request.getfixturevalue(env)
    n_rows = 0
    for _layout, f in _layout_files(path, serving):
        for row in _file_rows(f):
            occ = int(varint_decode(row["tfs_blob"], row["df"]).sum())
            assert _n_varints(row["pos_blob"]) == occ, row["term"]
            if env == "full_env":
                assert _n_varints(row["chars_blob"]) == 2 * occ, row["term"]
            n_rows += 1
    assert n_rows


@pytest.mark.parametrize("env", ["blocks_env", "full_env"])
def test_segment_statistics_only_on_term(request, env):
    """Segment files carry Parquet statistics on ``term`` only, write
    ``term`` as DELTA_BYTE_ARRAY and keep no dictionary over the per-row
    unique columns (``tfs_blob`` keeps one). Docmeta files keep their
    ``doc_id`` statistics, which a pushed-down ``doc_id`` filter reads."""
    path, serving = request.getfixturevalue(env)
    for _layout, f in _layout_files(path, serving):
        md = pq.ParquetFile(f).metadata
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            for j in range(rg.num_columns):
                c = rg.column(j)
                name = c.path_in_schema
                assert c.is_stats_set == (name == "term"), (f, name)
                if name == "term":
                    assert "DELTA_BYTE_ARRAY" in c.encodings, f
                # lens_blob and doc_slots: the term-bucket files only
                plain = ("term", "ids_blob", "pos_blob", "chars_blob", "lens_blob",
                         "doc_slots")
                assert c.has_dictionary_page == (name not in plain), (f, name)
    for d in (path, serving):
        files = sorted(glob.glob(os.path.join(d, "docmeta", "*.parquet")))
        assert files
        for f in files:
            rg = pq.ParquetFile(f).metadata.row_group(0)
            st = rg.column(0).statistics
            assert rg.column(0).path_in_schema == "doc_id"
            assert st is not None and st.has_min_max, f


BUCKET_ROW_KEYS = {
    "bucket", "path", "n_terms", "n_postings", "sum_tf", "n_docs_meta",
    "min_term", "max_term", "lineage", "bytes",
}


@pytest.mark.parametrize("env", ["blocks_env", "sparse_index"])
def test_manifest_bucket_rows_record_bytes(request, env):
    """Every bucket row of the term-bucket and the serving manifests has
    the same keys, and ``bytes`` is its segment plus docmeta file sizes."""
    from whoosh_novo_ray.index import Index

    if env == "sparse_index":
        dirs = [request.getfixturevalue(env).path]
    else:
        dirs = list(request.getfixturevalue(env))
    for d in dirs:
        rows = Index(d).manifest["buckets"]
        assert rows
        for b in rows:
            assert set(b) == BUCKET_ROW_KEYS
            dm = os.path.join(d, "docmeta", f"bucket={b['bucket']:05d}.parquet")
            want = os.path.getsize(dm) if os.path.exists(dm) else 0
            if b["path"]:
                want += os.path.getsize(os.path.join(d, b["path"]))
            assert b["bytes"] == want > 0, b
