"""Distributed query SCORING: doc-shard actors evaluate whole queries.

This is the scatter-gather the reference's segment model implies
(de-odex/whoosh-novo ``src/whoosh/reading.py:1012-1120`` MultiReader +
``collectors.py:423-508`` top-k): segments are doc-partitioned, each is
searched independently, and the per-segment results merge by
(score desc, doc_id asc). Here each ScoreServer actor pins one-or-more doc
shards (built by index/docshard.py) and runs the SAME vectorized Searcher
over its doc subset — with GLOBAL collection stats (doc_count, avg field
length, per-term df/weight shipped with the query), so scores are
bit-identical to a single-process search. Only the per-shard top-k
(limit rows) ever leaves an actor; no posting blob crosses the network at
query time, which is what survives a stopword-grade term over 10^10 docs.

Driver responsibilities (cheap, metadata-only):
  * expand multi-term nodes with ``search.plan.rewrite`` against the MAIN
    index's term dictionary — the expansion (single-term = scored,
    multi-term constantscore) depends on the GLOBAL lexicon, not a
    shard's slice;
  * fetch global per-term stats once per term (a block-index lookup in the
    main index's open-once bucket files, cached across queries), together
    with the term's ``doc_slots`` mask (bit ``key_hash(doc_id) % 64`` per
    posting, read in the same cached stats group; only the stats ship);
  * send each operation (``search``, ``search_async``, ``wand_topk``,
    ``facet_counts``, ``collapse_search``, ``sorted_search``) only to the
    actors that can match it (below);
  * k-way-merge the per-shard top-k tables with the reference tie-break.

One plan step (``ScorePool._plan``) serves every operation: it decides
whether the query or a Query filter must run on the driver, rewrites the
query and its filters, fetches the stats to ship and the doc slots that can
hold a match; the operation then sends it to the routed replica's actors
that hold one of those slots. ``wand_topk`` uses only the stats-and-slots
part, and the micro-batch path routes each query of a batch to a replica
whose every actor gets that replica's chunk.

One constructor: a pool serves a generation's members (a single index dir
is a one-member generation), each from its own serving shard set
(``index/docshard.py``). Every shard that a member's serving manifest lists
is assigned to an actor, docmeta-only shards included, and an actor pins
its shards' tables from every member.

Pruning before dispatch: a serving shard is ``key_hash(doc_id) % n`` and a
slot ``key_hash(doc_id) % 64``, so with ``g = gcd(n, 64)`` slot ``s`` can
land in shard ``k`` exactly when ``s % g == k % g`` (:func:`shard_slots`):
one shard per slot when ``n`` divides 64, one slot per shard when ``n`` is
a multiple of 64, some pruning for any other even ``n`` and none for an odd
one. The driver maps the rewritten query to the slots that can hold a
match (:func:`query_slots`): a Term its mask; Or, DisMax and a
constant-score union the OR of their children; And, Phrase and Require the
AND (a doc has one slot, so this is exact); AndNot and AndMaybe the slots
of ``a``; ConstantScore, WeightingQuery and Filtered their child's;
NullQuery none. The rule is conservative: any other node, an empty
compound or a fielded Term means every slot. Each actor gets the query
only when one of its shards can hold one of those slots; when none can,
the query returns the empty merge without a round trip. Tail words are
rare, so most of a tail query's round trips could only return nothing
(REPOSE, ICDE 2021, prunes distributed top-k partitions the same way).
The micro-batch path sends a chunk to every actor of its replica.

Queries whose semantics are inherently global-order-dependent (Otherwise's
"b only if a matches NOTHING anywhere", NestedParent/NestedChildren block
joins that need doc-contiguity), in the query or in a Query filter, fall
back to the driver for every operation: ``Searcher.search``,
``sorting.facet_counts``, ``sorting.collapse_search`` or
``sorting.sorted_search`` over the pool's index.

Time budgets: every ScoreServer operation (``score``, ``score_many``,
``facet_counts``, ``collapse_candidates``, ``wand``) is ONE method taking
``timelimit=None`` — the reference's single TimeLimitCollector wrapping any
collector (collectors.py:1012-1107), not a deadline twin per collector.
Without a budget an operation is one whole-actor search; with one, the
shared loop ``ScoreServer._each`` walks the pinned tables under the clock.
Running out of time is a flag in the result table's schema metadata
(:func:`timed_out`); every merge ORs its parts' flags, and the pool turns a
flagged merge into :class:`whoosh_novo_ray.search.wand.TimeLimit` (or a
``(table, timed_out)`` pair on the micro-batch path).

Transport: the pool reaches its actors through ONE entry point,
``ScoreServer.call``. The driver pickles ``(operation, args, kwargs)`` once
per query (``ray.cloudpickle``: some queries carry closures) and sends the
same bytes to every actor of the fan-out; Ray would otherwise serialize
every argument again for every actor. ObjectRefs (large filter arrays put
in the object store) stay top-level call arguments, so Ray resolves them
and tracks the borrow; the request holds a placeholder in their place.
The entry point calls the operation's method, and a top-k table goes back
as raw bytes: the uint64 doc ids, the float64 scores, one timed-out byte.
The merges work on those arrays, and the driver (or the async path's one
merge task) builds the result table once, after the merge. Other results
(facet counts, collapse and sort candidates) go back as tables.

Per-call CPU in ms (driver thread + actor main threads), 2,000 synthetic
pages, 4 shards on 2 actors, a warm one-term query, 400 calls x 3 rounds
on a 4-vCPU shared VM (``python scripts/probe_dispatch.py --rounds 3``;
ranges over the rounds). A call that does no work now costs about 0.3 ms
a side, against 0.16-0.21 ms when the one-request transport replaced a
per-argument one (that one cost 1.06-1.18 ms on the driver and 1.88-2.00
ms on the actors per ``ScorePool.search``, against 0.54-0.62 and
1.15-1.27 for the one-request transport, measured back to back):

==============================================  =========  =========
call                                            driver     actors
==============================================  =========  =========
``ping`` (one actor, no work)                   0.32-0.41  0.30-0.43
``score.remote`` (one actor, 3 arguments)       0.77-0.95  1.21-1.54
``ScorePool.search`` (both actors)              0.80-1.28  1.66-2.97
==============================================  =========  =========

Pin-time decode: an actor decodes the doc ids, tfs and weights of every
pinned table once (:class:`PinnedTable`), so a plain term costs a hash
lookup and array slices on every query, cold or warm, and no TermRow.
On the benchmark's 2,000-page seed-1 index, pinning shards [0, 2] (two
tables, 20,264 terms) takes 28-32 ms of wall time and 17-19 ms of main-
thread CPU, against 11 ms and 4 ms when the actor kept the blobs and
decoded them per query (15 in-process pins a side). In
``python scripts/probe_query.py --workload head``, the actors' CPU per
call fell from 1.38 to 0.66 ms (median of 384 queries, one run a side);
a warm repeated term, as in the table above, costs the same as before.

Actor start: every pool start, refresh, replica and restart spawns fresh
actors, so a ScoreServer imports only the serving code: no ``ray.data``
or pandas at module level, ``pq.ParquetFile(...).read`` (``pq.read_table``
loads ``pyarrow.dataset``), and Arrow to numpy through ``arrow_view``
(pyarrow imports pandas on the first ``to_numpy()`` or ``pa.array``). Per
actor at ready, 2,000 synthetic pages, 4 shards, 2 interleaved rounds of
``python scripts/probe_actor_start.py``, same VM: 1,016 modules (1,339
with pandas), peak RSS 146.2-146.3 MB (177.3-177.9), main-thread CPU
0.89-1.04 s (1.11-1.33). A bare ``@ray.remote`` actor: 975 modules,
121.6-121.7 MB, 0.54-0.79 s.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
from ray import cloudpickle

from whoosh_novo_ray.index.build import MANIFEST_NAME
from whoosh_novo_ray.index.docshard import (
    build_serving_shards,
    default_num_shards,
    serving_dir_for,
)
from whoosh_novo_ray.index.multi import MultiIndex
from whoosh_novo_ray.index.segment import (
    Index,
    TermColumns,
    TermRow,
    _LRUCache,
    _TermBlocks,
    arrow_view,
    binary_view,
    blob_concat,
    decode_postings,
)
from whoosh_novo_ray.search import query as Q
from whoosh_novo_ray.search.plan import rewrite
from whoosh_novo_ray.search.searcher import Searcher, _hits_table, _in_sorted
from whoosh_novo_ray.search.scoring import WeightingModel
from whoosh_novo_ray.search import sorting
from whoosh_novo_ray.search.wand import TimeLimit, searcher_wand_topk


# lazily loaded positional row groups an actor keeps (shared by all of its
# pinned files; cache_sizes() reports the entry count)
BLOCK_CACHE_ROW_GROUPS = 16

# every doc slot (bit ``key_hash(doc_id) % 64``): what a query node the
# pruning rule does not know may match
_ALL_SLOTS = (1 << 64) - 1


def query_slots(q: Q.Query, slots: dict[str, int]) -> int:
    """The doc slots that can hold a match of the rewritten query ``q``,
    from each term's ``doc_slots`` mask in ``slots`` (module docstring:
    "Pruning before dispatch"). A node this rule does not know, an empty
    compound, a fielded Term or a term missing from ``slots`` may match in
    every slot."""
    if isinstance(q, Q.Term):
        return _ALL_SLOTS if q.field is not None else slots.get(q.text, _ALL_SLOTS)
    if isinstance(q, Q.NullQuery):
        return 0
    if isinstance(q, (Q.Or, Q.DisMax)) and q.children:
        m = 0
        for c in q.children:
            m |= query_slots(c, slots)
        return m
    if isinstance(q, Q.And) and q.children:
        m = _ALL_SLOTS
        for c in q.children:
            m &= query_slots(c, slots)
        return m
    if isinstance(q, Q.Phrase) and q.words and q.field is None:
        m = _ALL_SLOTS
        for w in q.words:
            m &= slots.get(w, _ALL_SLOTS)
        return m
    if isinstance(q, Q.Require):
        return query_slots(q.a, slots) & query_slots(q.b, slots)
    if isinstance(q, (Q.AndNot, Q.AndMaybe)):
        return query_slots(q.a, slots)
    if isinstance(q, (Q.ConstantScore, Q.WeightingQuery, Q.Filtered)):
        return query_slots(q.child, slots)
    return _ALL_SLOTS


def shard_slots(shards: list[int], num_shards: int) -> int:
    """The doc slots that ``shards`` (of ``num_shards`` serving shards) can
    hold. Shard ``k`` holds ``h % n == k`` and slot ``s`` holds
    ``h % 64 == s``, so with ``g = gcd(n, 64)`` slot ``s`` can land in shard
    ``k`` exactly when ``s % g == k % g``."""
    g = math.gcd(num_shards, 64)
    residues = {k % g for k in shards}
    m = 0
    for s in range(64):
        if s % g in residues:
            m |= 1 << s
    return m


# the columns a pinned table keeps: the term stats and the skip lists that
# WAND and positional TermRows carry. ``block_ids_off``/``block_tfs_off``
# only address the blobs, which the pin decodes and drops.
_PIN_COLUMNS = (
    "df",
    "max_weight",
    "min_len_byte",
    "block_max_ids",
    "block_max_weights",
    "block_min_lens",
)
# read once per row group for the decode and the term index, not kept
_DECODE_COLUMNS = ("term", "ids_blob", "tfs_blob", "wts_blob")
# positional/chars/per-occurrence-boost blobs are the bulk of a
# positions-enabled segment and most queries never touch them: at fleet
# scale pinning them would hold the full uncompressed posting set in
# cluster RAM. They lazy-load per row group on first positional use.
_LAZY_COLUMNS = (
    "block_pos_off", "pos_blob",
    "block_chars_off", "chars_blob",
    "pboosts_blob",
)
# 64-bit FNV-1a over a term's UTF-8 bytes: a pin hashes a whole term
# column with numpy, with no Python str per term
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


@functools.lru_cache(maxsize=65536)
def _term_hash(term: str) -> int:
    """:func:`_column_hashes` of one term, as a signed 64-bit int."""
    h = _FNV_OFFSET
    for c in term.encode():
        h = ((h ^ c) * _FNV_PRIME) & _U64
    return h - (1 << 64) if h >> 63 else h


def _column_hashes(offs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """FNV-1a of every value of a string column (``offs``/``data`` its
    offsets and bytes) as int64: one numpy step per byte position, over
    the values at least that long."""
    lens = np.diff(offs)
    h = np.full(len(lens), _FNV_OFFSET, np.uint64)
    by_len = np.argsort(-lens, kind="stable")
    n_longer = np.searchsorted(-lens[by_len], -np.arange(int(lens.max(initial=0))), "left")
    starts = offs[:-1][by_len]
    for k, m in enumerate(n_longer):
        live = by_len[:m]
        h[live] = (h[live] ^ data[starts[:m] + k]) * np.uint64(_FNV_PRIME)
    return h.view(np.int64)


class PinnedTable:
    """One serving table of a scoring actor, decoded once when it is pinned.

    Every posting of the table sits in flat arrays, in row order: ``ids``
    (uint64 doc ids), ``tfs`` (uint32 integer tfs, the build's tf type),
    ``wts`` (float64 weights, only when the file has ``wts_blob``) and
    ``lens`` (uint8 length bytes). Row ``r`` holds postings ``starts[r]``
    to ``starts[r + 1]``. The store is sized from the file's manifest row
    (``n_postings``), and the pin reads one row group at a time, so the
    blobs and the decode's temporaries never exceed one group; the blobs
    are not kept. The serving files store no length bytes: ``lens`` is one
    ``searchsorted`` of ``ids`` into the shard's docmeta, and a posting
    whose doc that docmeta lacks raises ``ValueError``.

    A plain-term lookup (:meth:`find`, :meth:`postings`) is a hash search
    and three slices: ``hashes`` is each term's sorted ``hash()`` (stable
    within the actor process) and ``perm`` its row; a candidate row is
    checked against the bytes of the pinned ``term`` column. WAND and
    positional queries get :meth:`row` TermRows, built from ``cols`` (views
    of ``table``, the ``_PIN_COLUMNS``) and carrying the same slices."""

    def __init__(self, path: str, block_cache: _LRUCache, block_size: int,
                 n_postings: int, docmeta: tuple[np.ndarray, np.ndarray]):
        """``docmeta``: the shard's (doc ids, len bytes), sorted by id."""
        pf = pq.ParquetFile(path)
        names = pf.schema_arrow.names
        pin = [c for c in _PIN_COLUMNS if c in names]
        read = pin + [c for c in _DECODE_COLUMNS if c in names]
        n, self.block_size = n_postings, block_size
        self.ids = np.empty(n, np.uint64)
        self.tfs = np.empty(n, np.uint32)
        self.wts = np.empty(n, np.float64) if "wts_blob" in names else None
        # never empty: ``write_segment`` writes a row group even for no rows
        starts, parts, terms = [np.zeros(1, np.int64)], [], []
        a = b = 0
        for g in range(pf.num_row_groups):
            rg = pf.read_row_group(g, columns=read)
            starts.append(a + np.cumsum(arrow_view(rg["df"]), dtype=np.int64))
            b = int(starts[-1][-1]) if len(rg) else a
            if b > n:
                break
            self.ids[a:b], self.tfs[a:b] = decode_postings(rg, block_size)
            if self.wts is not None:
                self.wts[a:b] = blob_concat(rg["wts_blob"]).view(np.float32)
            parts.append(rg.select(pin))
            terms.extend(rg["term"].chunks)
            a = b
        if b != n:  # a group overran the store (break) or the last fell short
            raise ValueError(f"{path}: its rows' df sum differs from the manifest's "
                             f"n_postings ({n})")
        self.starts = np.concatenate(starts)
        dm_ids, dm_lens = docmeta
        at = np.searchsorted(dm_ids, self.ids)
        found = at < len(dm_ids)
        found[found] = dm_ids[at[found]] == self.ids[found]
        if not found.all():
            raise ValueError(f"{path}: {int((~found).sum())} postings name docs "
                             "missing from the shard's docmeta")
        self.lens = dm_lens[at]
        self.table = pa.concat_tables(parts)
        self.cols = TermColumns(self.table, block_size)
        self.term = pa.concat_arrays(terms)
        self._build_term_index()
        self.blocks = _TermBlocks(path, block_cache, block_size)
        self.lazy_cols = tuple(c for c in _LAZY_COLUMNS if c in names)

    def _build_term_index(self) -> None:
        self._term_offs, self._term_data = binary_view(self.term)
        hashes = _column_hashes(self._term_offs, self._term_data)
        # stable: a term's rows come out in row order
        order = np.argsort(hashes, kind="stable")
        self.hashes = hashes[order]
        self.perm = order.astype(np.int32)

    def find(self, term: str) -> list[int]:
        """The rows holding ``term``, in row order."""
        h = _term_hash(term)
        hs = self.hashes
        i = int(hs.searchsorted(h))
        out = []
        while i < len(hs) and hs[i] == h:
            r = int(self.perm[i])
            a, b = self._term_offs[r], self._term_offs[r + 1]
            if self._term_data[a:b].tobytes() == term.encode():
                out.append(r)
            i += 1
        return out

    def postings(self, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ``r``'s (doc ids, weights-or-tfs, len bytes): slices."""
        a, b = self.starts[r], self.starts[r + 1]
        tf = self.tfs if self.wts is None else self.wts
        return self.ids[a:b], tf[a:b], self.lens[a:b]

    def row(self, r: int, term: str, lazy: bool = False) -> TermRow:
        """Row ``r`` as a TermRow for WAND or (``lazy``) positional use: views
        of the pinned columns, with ``_decoded`` and ``_tfs`` slices of the
        store. Pinned rows line up with file rows, so the lazy positional
        columns are the same row of the file's row group (cached in the
        actor's block LRU, and copied out so cached TermRows never pin a
        whole group's blobs)."""
        extra = {}
        if lazy and self.lazy_cols:
            g, off = self.blocks.locate_row(r)
            extra = self.blocks.read(g, self.lazy_cols).values(off, copy=True)
        a, b = self.starts[r], self.starts[r + 1]
        return self.cols.row(
            r, term, **extra, _decoded=self.postings(r), _tfs=self.tfs[a:b]
        )

    def n_blocks(self, r: int) -> int:
        """Row ``r``'s posting blocks, from its df."""
        return -(-int(self.starts[r + 1] - self.starts[r]) // self.block_size)

    @property
    def nbytes(self) -> int:
        """Bytes of the store, the term index and the pinned table."""
        arrays = (self.starts, self.ids, self.tfs, self.wts, self.lens,
                  self.hashes, self.perm)
        return (
            sum(x.nbytes for x in arrays if x is not None)
            + self.term.nbytes
            + self.table.nbytes
        )


class _GlobalStatsView:
    """Index-shaped object a ShardSearcher scores against: GLOBAL doc count
    and average field length, with the shard's own doc universe."""

    def __init__(self, doc_count: int, total_field_length: float, universe: np.ndarray):
        self.doc_count = doc_count
        self.total_field_length = total_field_length
        self._universe = universe

    @property
    def avg_field_length(self) -> float:
        return self.total_field_length / (self.doc_count or 1)

    def all_doc_ids(self) -> np.ndarray:
        return self._universe


class ShardSearcher(Searcher):
    """Searcher over pinned doc-shard tables with global stats.

    A plain term reads its postings from each :class:`PinnedTable`'s
    decoded store (a hash lookup and array slices, no I/O, no TermRow);
    WAND and positional queries get TermRows built on first use and cached
    (``_rows``). Term stats come from the driver-shipped global map, so idf
    / SQR coordination / WAND block-max thresholds all see the whole
    collection.

    Known degenerate-case divergence: the array-path Or's keep-the-initial-
    position-even-at-score-0 quirk (see Searcher) is relative to the GLOBAL
    minimum doc id, which a shard can't see — shards drop ALL score-<=0 docs
    instead, so a pooled result may lack at most one score-0 tail doc vs the
    single-process Searcher when a query contains a zero-scoring Or child
    (only producible by a scaled Or whose termcount degenerates to 1)."""

    _or_zero_keep_first = False

    def __init__(
        self,
        view: _GlobalStatsView,
        pinned: list[PinnedTable],
        gstats: dict[str, tuple[int, float, float]],
        weighting: WeightingModel | None = None,
    ):
        super().__init__(view, weighting=weighting)  # type: ignore[arg-type]
        self._pinned = pinned
        self._gstats = gstats
        self._universe = view._universe

    def _with_weighting(self, weighting: WeightingModel) -> "ShardSearcher":
        sub = ShardSearcher(self.index, self._pinned, self._gstats, weighting)
        sub._term_cache = self._term_cache
        return sub

    def prefetch_terms(self, terms: list[str], with_positions: bool = False) -> None:
        """Nothing to fetch ahead: plain terms read the store and the rows
        of WAND and positional use are built on first use."""

    def _rows(self, term: str, with_positions: bool = False) -> list[TermRow]:
        key = (term, with_positions)
        rows = self._term_cache.get(key)
        if rows is None:
            rows = self._term_cache[key] = [
                p.row(r, term, with_positions)
                for p in self._pinned
                for r in p.find(term)
            ]
        return rows

    def term_postings(self, term: str, with_positions: bool = False):
        if with_positions:
            return super().term_postings(term, True)
        return self._merge_rows(
            ("merged", term, False),
            [p.postings(r) for p in self._pinned for r in p.find(term)],
            None,
        )

    def n_blocks(self, term: str) -> int:
        return sum(p.n_blocks(r) for p in self._pinned for r in p.find(term))

    def term_stats(self, term: str) -> tuple[int, float, float]:
        return self._gstats.get(term, (0, 0.0, 0.0))

    def postings(self, q: Q.Query):
        if isinstance(q, Q.ColumnQuery):
            # the attrs table is collection-global: restrict matches to THIS
            # shard's docs or the pool merge would multiply-count them
            ids, sc = super().postings(q)
            keep = _in_sorted(ids, self._universe)
            return ids[keep], sc[keep]
        return super().postings(q)


@ray.remote(max_restarts=4, max_task_retries=2)
class ScoreServer:
    """Pins a set of doc shards; evaluates queries over them end-to-end.

    Fault-tolerant: every method is a pure read over the on-disk serving
    layout, so a crashed actor restarts (re-pins its shards from the same
    parquet) and the in-flight task retries transparently — on a long-lived
    multi-node fleet individual workers WILL die. Caches rebuild lazily.

    Each pinned table is a :class:`PinnedTable`: its postings are decoded
    once, at pin time, and a plain term's postings are slices of them.
    Only WAND and positional queries build TermRows, which carry the same
    slices. The lazy positional columns come from the block LRU's row
    groups and are copied out of them, so an evicted group is freed."""

    def __init__(self, serving_dir: str | list[str], shards: list[int]):
        """``serving_dir`` may be a LIST of member serving dirs (one per
        doc-disjoint generational member, all sharded with the same doc
        hash and shard count): the actor pins shard k's table from EVERY
        member and evaluates over their union — how an incremental commit
        serves without re-encoding unchanged members."""
        dirs = [serving_dir] if isinstance(serving_dir, str) else list(serving_dir)
        self._shards = list(shards)
        self._attr_cache: _LRUCache = _LRUCache(8)
        mans = []
        for d in dirs:
            with open(os.path.join(d, MANIFEST_NAME)) as f:
                mans.append(json.load(f))
        # members are doc-disjoint: global stats are the sums
        self._doc_count = int(sum(int(m["doc_count"]) for m in mans))
        self._tfl = float(sum(float(m["total_field_length"]) for m in mans))
        def _docmeta(d: str, k: int) -> tuple[np.ndarray, np.ndarray]:
            """(doc ids, len bytes) of one docmeta file, sorted by doc id."""
            p = os.path.join(d, "docmeta", f"bucket={k:05d}.parquet")
            if not os.path.exists(p):
                return np.empty(0, np.uint64), np.empty(0, np.uint8)
            t = pq.ParquetFile(p).read(columns=["doc_id", "len_byte"])
            ids = arrow_view(t["doc_id"]).astype(np.uint64)
            order = np.argsort(ids, kind="stable")
            return ids[order], arrow_view(t["len_byte"])[order]

        # each (member, shard) docmeta file is read once: a pinned table's
        # universe and length bytes, and a part of the actor's universe
        dm = {(d, k): _docmeta(d, k) for d in dirs for k in self._shards}
        # per pinned table: its decoded store, term index and file block
        # index (PinnedTable); the positional columns stay on disk
        self._pinned: list[PinnedTable] = []
        self._block_cache = _LRUCache(BLOCK_CACHE_ROW_GROUPS)
        self._table_shards: list[int] = []  # bucket id per pinned table
        # per-TABLE doc universe: with multi-member serving, several tables
        # share a shard id but partition its docs — the budgeted loop's
        # per-table evaluation needs the table's OWN universe (a shard-wide
        # one would duplicate Not/Every/Column matches across members)
        self._table_universe: list[np.ndarray] = []
        for d, man in zip(dirs, mans):
            for b in man["buckets"]:
                if b["bucket"] in shards and b["path"]:
                    k = int(b["bucket"])
                    self._pinned.append(PinnedTable(
                        os.path.join(d, b["path"]), self._block_cache,
                        man["config"]["block_size"], int(b["n_postings"]), dm[d, k],
                    ))
                    self._table_shards.append(k)
                    self._table_universe.append(dm[d, k][0])
        self._universe = np.sort(np.concatenate([np.empty(0, np.uint64)]
                                                + [ids for ids, _ in dm.values()]))
        # WAND and positional TermRows and merged multi-table postings,
        # shared across queries (the pinned tables are immutable). Bounded:
        # cleared past 50k entries (stopword-grade terms dominate reuse long
        # before that).
        self._tcache: dict = {}
        # per-table caches for the budgeted loop (same bound, kept by _each)
        self._table_caches: dict[int, dict] = {}

    def _searcher(self, gstats, weighting) -> ShardSearcher:
        view = _GlobalStatsView(self._doc_count, self._tfl, self._universe)
        s = ShardSearcher(view, self._pinned, gstats, weighting)
        if len(self._tcache) > 50_000:
            self._tcache.clear()
        s._term_cache = self._tcache
        return s

    def pinned_bytes(self) -> int:
        """RAM held by the pinned tables: each one's decoded postings, term
        index, term column and kept scoring columns
        (:attr:`PinnedTable.nbytes`). The caches are not counted."""
        return int(sum(p.nbytes for p in self._pinned))

    def cache_sizes(self) -> dict[str, int]:
        """Entry counts of the per-actor caches (soak-test observability:
        long-running serving must hold these flat/bounded)."""
        return {
            "term_cache": len(self._tcache),
            "attr_cache": len(self._attr_cache),
            "block_cache": len(self._block_cache),
        }

    def rss_bytes(self) -> int:
        """This actor process's PEAK resident set size (``ru_maxrss``), the
        fleet-memory metric pinned_bytes approximates from the table side."""
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    def _each(
        self, gstats, weighting, timelimit, _delay_per_table, run
    ) -> tuple[list, bool]:
        """The one evaluation loop behind every budgeted method.

        Without a budget, ``run`` gets the whole-actor searcher once. With
        ``timelimit`` (seconds) it is the reference TimeLimitCollector
        (collectors.py:1012-1107: on expiry the partial results collected
        so far remain available). The vectorized eval can't be interrupted
        mid-kernel, so the check granularity is one pinned shard TABLE: the
        actor runs one table at a time (scores are identical — they depend
        only on the driver-shipped global stats — and tables partition the
        doc space, so merging the per-table results is exact) and checks
        the clock before each. Returns (per-part results, timed_out).

        ``_delay_per_table`` is a test hook: sleep that long before each
        table so deadline crossings land at deterministic table boundaries.
        """
        if timelimit is None:
            return [run(self._searcher(gstats, weighting))], False
        if sum(len(c) for c in self._table_caches.values()) > 50_000:
            self._table_caches.clear()
        t0 = time.perf_counter()
        parts = []
        for i in range(len(self._pinned)):
            if time.perf_counter() - t0 > timelimit:
                return parts, True
            if _delay_per_table:
                time.sleep(_delay_per_table)
            parts.append(run(self._table_searcher(i, gstats, weighting)))
        return parts, False

    def _table_searcher(self, i: int, gstats, weighting) -> ShardSearcher:
        """Per-TABLE searcher for the budgeted loop (the shared whole-actor
        TermRow cache is keyed by term only, so sub-searchers over different
        table subsets must not share it) with its own persistent per-table
        cache, so repeated budgeted queries stay warm."""
        view = _GlobalStatsView(
            self._doc_count,
            self._tfl,
            self._table_universe[i],
        )
        s = ShardSearcher(view, [self._pinned[i]], gstats, weighting)
        s._term_cache = self._table_caches.setdefault(i, {})
        return s

    def score(
        self,
        q: Q.Query,
        limit: int | None,
        gstats: dict[str, tuple[int, float, float]],
        weighting: WeightingModel | None = None,
        fq=None,
        mq=None,
        timelimit: float | None = None,
        _delay_per_table: float = 0.0,
    ) -> pa.Table:
        """Top-``limit`` (score desc, doc_id asc) over THIS actor's docs.

        ``fq`` / ``mq``: FilterCollector allow/restrict (reference
        collectors.py:659-763) — a Query evaluated against THIS shard's
        docs, or a pre-sorted global doc-id array. Per-shard filtering
        before the per-shard top-k cut composes exactly: the global merge
        of post-filter shard top-k's is the post-filter global top-k.

        With ``timelimit`` the result is the merge of the tables that
        finished, flagged (:func:`timed_out`) when the budget ran out."""
        parts, out_of_time = self._each(
            gstats, weighting, timelimit, _delay_per_table,
            lambda s: s.search(q, limit=limit, filter=fq, mask=mq),
        )
        if timelimit is None:
            return parts[0]
        return _flag(_merge_topk(parts, limit), out_of_time)

    def score_many(
        self,
        qs: list[Q.Query],
        limit: int | None,
        gstats: dict[str, tuple[int, float, float]],
        weighting: WeightingModel | None = None,
        timelimit: float | None = None,
        _delay_per_table: float = 0.0,
    ) -> list[pa.Table]:
        """One remote round-trip for a MICRO-BATCH of queries (the serving
        throughput path). Every actor call has a fixed CPU cost: a call
        that does no work costs about 0.3 ms on the driver and 0.3 ms on
        the actor, and a pooled one-term search 0.8-1.3 ms on the driver
        and 1.7-3.0 ms over its 2 actors (4-vCPU shared VM; table in the
        module docstring). Batching B queries per call divides the fixed
        part by B. ``gstats`` is the union map for the whole batch. A
        ``timelimit`` is PER QUERY (the reference arms a TimeLimitCollector
        per search, so a batch is B independent deadlines, not one shared
        one)."""
        return [
            self.score(
                q, limit, gstats, weighting,
                timelimit=timelimit, _delay_per_table=_delay_per_table,
            )
            for q in qs
        ]

    def wand(
        self,
        terms: list[str],
        k: int,
        gstats: dict[str, tuple[int, float, float]],
        weighting: WeightingModel | None = None,
        strategy: str = "auto",
        timelimit: float | None = None,
    ) -> tuple[pa.Table, dict]:
        try:
            return searcher_wand_topk(
                self._searcher(gstats, weighting),
                terms,
                k,
                strategy=strategy,
                timelimit=timelimit,
            )
        except TimeLimit as e:
            # exceptions don't cross actor boundaries cleanly — ship the
            # partial + flag, the pool re-raises driver-side
            return e.partial, {**e.stats, "timed_out": True}

    def _attr_table(self, attrs_dir: str, column: str) -> pa.Table:
        """THIS actor's shards' slice of a doc-sharded attribute table
        (index/docshard.py build_attr_shards) — read once, cached, sorted
        by doc_id. No id-list filters: the partition IS the actor's docs."""
        key = (attrs_dir, column)
        if key not in self._attr_cache:
            import glob as _glob

            files = [
                f
                for k in self._shards
                for f in sorted(
                    _glob.glob(
                        os.path.join(attrs_dir, f"vshard={k}", "*.parquet")
                    )
                )
            ]
            if files:
                tbl = pa.concat_tables(
                    [pq.ParquetFile(f).read(columns=["doc_id", column]) for f in files]
                ).sort_by("doc_id")
            else:
                tbl = pa.table(
                    {
                        "doc_id": pa.array([], pa.int64()),
                        column: pa.array([], pa.string()),
                    }
                )
            self._attr_cache[key] = tbl
        return self._attr_cache[key]

    def _lookup(self, attrs_dir: str, column: str, ids: np.ndarray):
        """``(found, values)``: which of ``ids`` this actor's attribute
        partition holds (a searchsorted into its sorted doc ids), and their
        ``column`` values, in ``ids`` order."""
        tbl = self._attr_table(attrs_dir, column)
        aid = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pos = np.searchsorted(aid, ids)
        found = pos < len(aid)
        found[found] &= aid[pos[found]] == ids[found]
        vals = tbl[column].take(pa.array(pos[found])).to_numpy(zero_copy_only=False)
        return found, vals

    def _matched_keys(self, s: "Searcher", q, attrs_dir, column):
        """(ids, scores, keys) for the docs ``s`` matches. Matched docs
        MISSING from the attrs table are dropped (mirroring the None-key
        masking in sorting.facet_counts) rather than taking an out-of-bounds
        position or a neighbor's key."""
        ids, scores = s.postings(q)
        found, keys = self._lookup(attrs_dir, column, ids)
        return ids[found], scores[found], keys

    def _keys_at(self, attrs_dir: str, column: str, ids: np.ndarray):
        """Attribute values aligned to ``ids`` (used for the collapse ORDER
        column, on ids already validated against the key column); an id
        missing from this partition gets a null key."""
        found, vals = self._lookup(attrs_dir, column, ids)
        out = np.full(len(ids), None, object)
        out[found] = vals
        return out

    def facet_counts(
        self, q, gstats, attrs_dir: str, column: str, weighting=None,
        timelimit: float | None = None, _delay_per_table: float = 0.0,
    ) -> pa.Table:
        """Partial per-key matched-doc counts over THIS shard. With
        ``timelimit`` (a TimeLimitCollector wrapping a FacetCollector) the
        counts are exact over the tables that finished and the table is
        flagged when coverage is partial."""
        parts, out_of_time = self._each(
            gstats, weighting, timelimit, _delay_per_table,
            lambda s: self._matched_keys(s, q, attrs_dir, column)[2],
        )
        keys = [k.astype(str) for k in parts if len(k)]
        counts = sorting.key_counts(np.concatenate([np.empty(0, str), *keys]))
        return _flag(counts, out_of_time)

    def collapse_candidates(
        self,
        q,
        gstats,
        attrs_dir: str,
        column: str,
        per_key: int,
        weighting=None,
        order_dir: str | None = None,
        order_column: str | None = None,
        timelimit: float | None = None,
        _delay_per_table: float = 0.0,
    ) -> pa.Table:
        """THIS shard's best ``per_key`` hits per collapse key — a superset
        of the global winners (any global winner is within its shard's
        per-key top, and falsy-key docs are never eliminated), so the
        driver's re-collapse over the union is exact. With an order column
        the shard also ships each candidate's order key (raw type) for the
        driver's global re-selection. With ``timelimit`` the candidates
        cover the tables that finished (still a superset of their winners),
        flagged when the budget ran out."""
        parts, out_of_time = self._each(
            gstats, weighting, timelimit, _delay_per_table,
            lambda s: self._matched_keys(s, q, attrs_dir, column),
        )
        parts = [p for p in parts if len(p[0])]
        if not parts:
            return _flag(_empty_hits(), out_of_time)
        ids, scores, keys = (np.concatenate(c) for c in zip(*parts))
        okeys = None
        if order_column is not None:
            okeys = self._keys_at(order_dir, order_column, ids)
        kept = sorting.collapse_select(ids, scores, keys, per_key, okeys)
        cols = {
            "doc_id": pa.array(ids[kept], pa.uint64()),
            "key": pa.array(keys[kept]),
            "score": pa.array(scores[kept], pa.float64()),
        }
        if okeys is not None:
            cols["okey"] = pa.array(okeys[kept])
        return _flag(pa.table(cols), out_of_time)

    def sorted_candidates(
        self,
        q,
        gstats,
        attrs_dirs: list,
        columns: list,
        reverses: list,
        limit,
        weighting=None,
    ) -> pa.Table:
        """THIS shard's matches ranked by the sort columns (each level
        honoring its reverse flag, doc_id tiebreak), truncated to ``limit``
        — a superset of the global top-``limit`` (any global winner ranks
        within its own shard's top). Raw-typed key columns ship alongside
        so the driver's global re-rank compares true values, not strings.
        Docs missing from the FIRST sort column are dropped (mirroring
        _matched_keys); later columns null-fill."""
        ids, scores, k0 = self._matched_keys(
            self._searcher(gstats, weighting), q, attrs_dirs[0], columns[0]
        )
        if not len(ids):
            out = {
                "doc_id": pa.array([], pa.uint64()),
                "score": pa.array([], pa.float64()),
            }
            for i in range(len(columns)):
                out[f"k{i}"] = pa.array([], pa.string())
            return pa.table(out)
        keysets = [k0]
        for d, c in zip(attrs_dirs[1:], columns[1:]):
            keysets.append(self._keys_at(d, c, ids))
        order = sorting.sort_order(ids, keysets, reverses, limit)
        out = {
            "doc_id": pa.array(ids[order], pa.uint64()),
            "score": pa.array(scores[order], pa.float64()),
        }
        for i, k in enumerate(keysets):
            out[f"k{i}"] = pa.array(k[order])
        return pa.table(out)

    def call(self, request: bytes, *refs):
        """The pool's one entry point: run the operation a
        :func:`_pack_request` request names, with the ObjectRef arguments
        Ray resolved (``refs``) put back in their placeholders' places. A
        top-k result goes back as raw bytes (:func:`_hits_blob`)."""
        op, args, kwargs = cloudpickle.loads(request)
        args = [refs[a.i] if isinstance(a, _Ref) else a for a in args]
        return _REPLY[op](getattr(self, op)(*args, **kwargs))

    def ping(self) -> bool:
        return True


@ray.remote(num_cpus=0.25)
def _merge_topk_task(limit: int | None, *replies: bytes) -> pa.Table:
    """The async serving path's merge (search_async): the actors' raw
    replies in, the merged top-k table out."""
    return _merge_replies(list(replies), limit)


@ray.remote(num_cpus=0.25)
def _batch_task(
    limit: int | None,
    pairs: bool,
    n: int,
    local: dict[int, pa.Table],
    chunks: list[tuple[list[int], int]],
    *replies: list[bytes],
) -> list:
    """Assemble a micro-batch (search_many_async) in one task. ``chunks``
    lists, per replica group the batch was split over, the batch positions
    of its queries and its actor count; ``replies`` are those actors'
    ``score_many`` replies, group by group. Each query's replies merge into
    its slot; the driver-side fallback results (``local``) fill the rest.
    With ``pairs`` each slot is ``(table, timed_out)`` (an async path can't
    raise per query)."""
    out: list = [local.get(i) for i in range(n)]
    j = 0
    for positions, width in chunks:
        group = replies[j:j + width]
        j += width
        for k, i in enumerate(positions):
            out[i] = _merge_replies([r[k] for r in group], limit)
    return [(t, timed_out(t)) for t in out] if pairs else out


# A budgeted ScoreServer method returns an ordinary result table; running
# out of time is a schema-metadata flag on it, so single-actor shortcuts and
# direct callers keep handling plain tables, and every merge ORs its parts.
_TIMED_OUT = b"timed_out"


def _flag(t: pa.Table, out_of_time: bool) -> pa.Table:
    return t.replace_schema_metadata({_TIMED_OUT: b"1"}) if out_of_time else t


def timed_out(t: pa.Table) -> bool:
    """True when ``t`` came from a budgeted evaluation that ran out of time
    (its rows are then the exact result over the covered shard tables)."""
    md = t.schema.metadata
    return bool(md) and md.get(_TIMED_OUT) == b"1"


class _Ref:
    """Placeholder, inside a request, for the ``i``-th ObjectRef passed
    next to it as a top-level call argument."""

    __slots__ = ("i",)

    def __init__(self, i: int):
        self.i = i


def _pack_request(op: str, *args, **kwargs) -> tuple[bytes, list]:
    """``(request, refs)`` for ``ScoreServer.call``: the operation and its
    arguments pickled once, with every top-level positional ObjectRef
    swapped for a placeholder and returned in ``refs``, to be passed as
    call arguments so Ray resolves them and tracks the borrow."""
    refs: list = []
    slots = []
    for a in args:
        if isinstance(a, ray.ObjectRef):
            slots.append(_Ref(len(refs)))
            refs.append(a)
        else:
            slots.append(a)
    return cloudpickle.dumps((op, slots, kwargs)), refs


def _fan_out(actors: list, op: str, *args, **kwargs) -> list:
    """One ``ScoreServer.call`` per actor, all sending the same request."""
    if not actors:
        return []
    request, refs = _pack_request(op, *args, **kwargs)
    return [a.call.remote(request, *refs) for a in actors]


def _hits_blob(t: pa.Table) -> bytes:
    """A (doc_id, score) result table as an actor's raw reply: the uint64
    doc ids, then the float64 scores, then one timed-out byte."""
    ids = arrow_view(t["doc_id"]).astype(np.uint64, copy=False)
    scores = arrow_view(t["score"]).astype(np.float64, copy=False)
    return ids.tobytes() + scores.tobytes() + (b"\1" if timed_out(t) else b"\0")


def _unpack_hits(blob: bytes) -> tuple[np.ndarray, np.ndarray, bool]:
    """``(doc ids, scores, timed_out)`` of a :func:`_hits_blob` reply."""
    n = len(blob) // 16
    return (
        np.frombuffer(blob, np.uint64, n),
        np.frombuffer(blob, np.float64, n, 8 * n),
        blob[-1] == 1,
    )


# how ``ScoreServer.call`` ships each operation's result: top-k tables as
# raw bytes; facet counts and collapse/sort candidates as they are
_REPLY = {
    "score": _hits_blob,
    "score_many": lambda ts: [_hits_blob(t) for t in ts],
    "wand": lambda r: (_hits_blob(r[0]), r[1]),
    "facet_counts": lambda t: t,
    "collapse_candidates": lambda t: t,
    "sorted_candidates": lambda t: t,
}


def _empty_hits() -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([], pa.uint64()),
            "key": pa.array([], pa.string()),
            "score": pa.array([], pa.float64()),
        }
    )


_NO_IDS = np.empty(0, np.uint64)
_NO_SCORES = np.empty(0, np.float64)


def _merge_hits(
    parts: list[tuple[np.ndarray, np.ndarray, bool]], limit: int | None
) -> pa.Table:
    """k-way merge of per-shard ``(doc ids, scores, timed_out)`` top-k's —
    the reference tie-break (score desc, doc_id asc), truncated to limit —
    as the result table. Shards partition the doc space, so every global
    top-k doc appears in exactly one part and within that part's top-k:
    concatenation + lexsort is exact. The merge is flagged when ANY part
    timed out — an empty part included."""
    out_of_time = any(p[2] for p in parts)
    ids = np.concatenate([p[0] for p in parts] or [_NO_IDS])
    scores = np.concatenate([p[1] for p in parts] or [_NO_SCORES])
    ids = ids.astype(np.uint64, copy=False)
    scores = scores.astype(np.float64, copy=False)
    order = np.lexsort((ids, -scores))
    if limit is not None:
        order = order[:limit]
    return _flag(_hits_table(ids[order], scores[order]), out_of_time)


def _merge_replies(blobs: list[bytes], limit: int | None) -> pa.Table:
    """The merged top-k table of the actors' raw replies."""
    return _merge_hits([_unpack_hits(b) for b in blobs], limit)


def _merge_topk(parts: list[pa.Table], limit: int | None) -> pa.Table:
    """:func:`_merge_hits` over result tables (a budgeted actor merges the
    tables it finished)."""
    return _merge_hits(
        [
            (arrow_view(p["doc_id"]), arrow_view(p["score"]), timed_out(p))
            for p in parts
        ],
        limit,
    )


class _Plan(NamedTuple):
    """One pooled operation's driver-side plan (:meth:`ScorePool._plan`)."""

    q: Q.Query  # rewritten; the candidate operations' filters folded in
    fq: object  # the normalized allow filter a top-k query ships
    mq: object  # the normalized restrict filter a top-k query ships
    gstats: dict  # (df, weight, max_weight) per term the query ships
    slots: int  # the doc slots that can hold a match
    cost: float  # the replica-routing estimate


class ScorePool:
    """Pool of doc-shard scoring actors + the driver-side query planner."""

    def __init__(
        self,
        index_path: str | list[str],
        num_actors: int = 4,
        num_shards: int | None = None,
        num_replicas: int = 1,
    ):
        """A pool over a generation's members: ``index_path`` is a list of
        doc-disjoint member index dirs (a generational MultiIndex), or one
        index dir, a one-member generation. Each member serves from its own
        shard set, ``serving_dir_for(member)``, built with resume (keyed on
        the member's lineage and the shard count). Member dirs are immutable
        (commits add new member dirs; deletes rewrite affected members into
        new dirs), so a delta commit encodes only the new members, and each
        actor pins its shards' tables from every member.

        ``num_replicas`` > 1 creates REPLICA GROUPS: full copies of the
        shard-set actor fleet, with each query routed (round-robin) to ONE
        replica and fanned out only within it. Fan-out-to-all throughput
        knees once per-actor per-query work approaches the ~1 ms dispatch
        floor (BASELINE.md round-3 QPS anatomy); past that knee more actors
        per replica buy nothing — more REPLICAS buy linear QPS at the cost
        of pinning the (scoring-column) shard set once per replica."""
        members = [index_path] if isinstance(index_path, str) else list(index_path)
        self.index = Index(members[0]) if len(members) == 1 else MultiIndex(members)
        # shard count scales with the CLUSTER, not the actor count: the
        # doc-shard shuffle/encode parallelism is num_shards-bounded
        # (measured 3.5x on a 1M-doc rebuild going 16 -> 64 shards at 32
        # cpus) while query latency is flat — actors just pin more,
        # smaller tables
        if num_shards is None:
            num_shards = default_num_shards(num_actors)
        self._serving_dirs = [serving_dir_for(m) for m in members]
        # every shard a serving manifest lists, docmeta-only ones (docs with
        # no postings) included: their docs still match Every and Not
        all_shards = sorted({
            b["bucket"]
            for m in members
            for b in build_serving_shards(m, num_shards=num_shards)["buckets"]
        })
        self._num_shards = num_shards
        assignments: list[list[int]] = [[] for _ in range(num_actors)]
        for i, k in enumerate(all_shards):
            assignments[i % num_actors].append(k)
        self._assignments = [ks for ks in assignments if ks]
        # per actor (the same in every replica): the doc slots it can match
        self._actor_slots = [shard_slots(ks, num_shards) for ks in self._assignments]
        self._replicas: list[list] = [
            self._spawn_replica() for _ in range(max(1, num_replicas))
        ]
        self._replica_load = [0.0] * len(self._replicas)
        ray.get([a.ping.remote() for grp in self._replicas for a in grp])
        self._stats_cache: _LRUCache = _LRUCache(200_000)
        # the lexicon that plan.rewrite expands against; term stats come from
        # the bounded _stats_cache, never from this searcher's term cache
        self._driver_searcher = Searcher(self.index)

    def _spawn_replica(self) -> list:
        return [ScoreServer.remote(self._serving_dirs, ks) for ks in self._assignments]

    # -- elastic replica scaling ----------------------------------------------

    def add_replica(self) -> int:
        """Spawn one more full copy of the shard-actor set and start routing
        to it (fleet scale-OUT under query load). Joins the balance at the
        current minimum load so it immediately absorbs traffic. Returns the
        new replica count."""
        grp = self._spawn_replica()
        ray.get([a.ping.remote() for a in grp])
        self._replicas.append(grp)
        self._replica_load.append(
            min(self._replica_load) if self._replica_load else 0.0
        )
        return len(self._replicas)

    def remove_replica(self) -> int:
        """Drain and kill the highest-indexed replica (scale-IN). The group
        leaves the routing table first; a ping barrier then flushes its
        actor queues (actor tasks from a single submitter run FIFO, so the
        ping completes only after every previously-dispatched query), and
        only then are the actors killed — in-flight queries finish cleanly.
        The last replica cannot be removed. Returns the new count."""
        if len(self._replicas) <= 1:
            raise ValueError("cannot remove the last replica")
        grp = self._replicas.pop()
        self._replica_load.pop()
        ray.get([a.ping.remote() for a in grp])  # drain
        for a in grp:
            ray.kill(a)
        return len(self._replicas)

    @classmethod
    def for_generational(cls, gi, num_actors: int = 4, num_shards: int | None = None):
        """The pool over a GenerationalIndex's current generation."""
        return cls(gi._members(gi.current_path()), num_actors, num_shards)

    # -- planning ------------------------------------------------------------

    def _term_info(self, terms) -> dict[str, tuple[int, float, float, int]]:
        """``(df, weight, max_weight, doc_slots)`` per term, through the
        bounded cache (one stats lookup per term fetches all four). It is
        also the stats function ``rewrite`` reads dfs from."""
        terms = set(terms)
        missing = [t for t in terms if t not in self._stats_cache]
        if missing:
            self._stats_cache.update(self.index.term_stats_and_slots(missing))
        return {t: self._stats_cache[t] for t in terms}

    def _stat_terms(self, q: Q.Query) -> list[str]:
        """Every concrete term the query can score — Term leaves AND the
        non-Term carriers (Phrase words, SpanTerm texts). These all need
        global (df, weight) shipped to the shards; a missing entry would
        score with df=0 idf."""
        from whoosh_novo_ray.search.spans import SpanTerm

        out: set[str] = set()
        for leaf in q.leaves():
            if isinstance(leaf, (Q.Term, SpanTerm)):
                out.add(leaf.text)
            elif isinstance(leaf, Q.Phrase):
                out.update(leaf.words)
        return sorted(out)

    def _needs_fallback(self, q: Q.Query) -> bool:
        """Global-order-dependent nodes evaluate driver-side: a Nested join
        among the leaves, or an Otherwise anywhere (it does not yield itself
        from leaves(), so the containers are walked)."""
        if any(isinstance(x, (Q.NestedParent, Q.NestedChildren)) for x in q.leaves()):
            return True
        stack = [q]
        while stack:
            node = stack.pop()
            if isinstance(node, Q.Otherwise):
                return True
            stack.extend(getattr(node, "children", ()) or ())
            for attr in (
                "a", "b", "child", "subq", "parents", "parents_q", "allow", "restrict"
            ):
                c = getattr(node, attr, None)
                if isinstance(c, Q.Query):
                    stack.append(c)
        return False

    def _plan(
        self, q: Q.Query, filter=None, mask=None, wrap: bool = False
    ) -> _Plan | None:
        """The driver's plan for one pooled operation, or None when ``q``
        or a Query filter must run on the driver (:meth:`_needs_fallback`).
        It rewrites ``q``, normalizes the filters (:meth:`_norm_filter`)
        and, with ``wrap`` (facets, collapse, sorted search), folds them
        into the query as a :class:`Q.Filtered`, so those actor paths
        filter with no extra plumbing. The rest is :meth:`_stats_plan`;
        filters only drop matches, so they do not widen the slots."""
        if any(isinstance(x, Q.Query) and self._needs_fallback(x) for x in (q, filter, mask)):
            return None
        q2 = rewrite(q, self._driver_searcher, self._term_info)
        fq, fterms = self._norm_filter(filter, put=not wrap)
        mq, mterms = self._norm_filter(mask, put=not wrap)
        if wrap and (fq is not None or mq is not None):
            q2, fq, mq = Q.Filtered(q2, fq, mq), None, None
        return self._stats_plan(q2, self._stat_terms(q2), [*fterms, *mterms], fq, mq)

    def _stats_plan(self, q2: Q.Query, terms: list[str], extra=(), fq=None, mq=None) -> _Plan:
        """The plan of the rewritten ``q2``: the stats that ``terms`` (its
        own) and ``extra`` (its Query filters') ship, the doc slots that
        can hold a match (:func:`query_slots`), and its routing cost: the
        postings scored, the df sum of ``terms``, plus 1 so that a query
        with no postings still advances the balance."""
        info = self._term_info([*terms, *extra])
        gstats = {t: v[:3] for t, v in info.items()}
        slots = query_slots(q2, {t: v[3] for t, v in info.items()})
        return _Plan(q2, fq, mq, gstats, slots, 1.0 + float(sum(gstats[t][0] for t in terms)))

    def _route(self, cost: float = 1.0) -> int:
        """Pick a replica, LEAST-LOADED by accumulated estimated cost.
        Plain round-robin aliases against cyclic workloads (with R
        replicas and a repeating mix of R·k query types, each replica gets a
        FIXED subset of the types — one replica inherits all the expensive
        ones and paces the fleet; measured 0.60 efficiency on the bench mix).
        Balancing dispatched work by the df-sum estimate removes the alias
        and needs no completion feedback."""
        loads = self._replica_load
        r = min(range(len(loads)), key=loads.__getitem__)
        loads[r] += cost
        if loads[r] > 1e12:  # rebase, keep relative differences
            m = min(loads)
            for i in range(len(loads)):
                loads[i] -= m
        return r

    def _actors(self, p: _Plan) -> list:
        """The actors of the routed replica that hold a shard of one of
        ``p``'s slots (none when it cannot match)."""
        grp = self._replicas[self._route(p.cost)]
        return [a for a, m in zip(grp, self._actor_slots) if m & p.slots]

    def _norm_filter(self, obj, put: bool = True) -> tuple[object, list[str]]:
        """Driver-side normalization of a FilterCollector allow/restrict arg
        (reference collectors.py:659-763). A Query ships to the shards and
        each actor computes its LOCAL comb (the scale path — the filter's
        posting set never leaves the actors); a results table / set-like
        becomes ONE sorted unique id array, ray.put once when large (and
        ``put``) so N actors share a single object-store copy. Returns
        (normalized, stat_terms_needed)."""
        if obj is None:
            return None, []
        if isinstance(obj, Q.Query):
            if isinstance(obj, Q.NullQuery):
                return None, []  # falsy in the reference — filtering off
            q2 = rewrite(obj, self._driver_searcher, self._term_info)
            return q2, self._stat_terms(q2)
        if isinstance(obj, pa.Table):
            obj = obj["doc_id"].to_numpy(zero_copy_only=False)
        if isinstance(obj, (set, frozenset)):
            obj = sorted(obj)
        arr = np.unique(np.asarray(obj, np.uint64))
        if not len(arr):
            return None, []  # reference falsy-bypass quirk
        if put and arr.nbytes > 65536:
            return ray.put(arr), []
        return arr, []

    # -- search --------------------------------------------------------------

    def search(
        self,
        q: Q.Query,
        limit: int | None = 10,
        weighting: WeightingModel | None = None,
        timelimit: float | None = None,
        _delay_per_table: float = 0.0,
        filter=None,
        mask=None,
    ) -> pa.Table:
        """With ``timelimit`` (seconds), each actor honors the budget
        independently (shard-table check granularity — ScoreServer._each);
        if ANY actor ran out, raises
        :class:`whoosh_novo_ray.search.wand.TimeLimit` carrying the exact
        merge of everything that DID finish in ``.partial`` (the reference
        TimeLimitCollector contract: partial results stay available).
        Local-fallback queries (Otherwise/Nested) ignore the deadline —
        they evaluate driver-side in one shot.

        ``filter`` / ``mask``: FilterCollector allow/restrict (a Query,
        results table, or set-like of doc ids); per-shard filtering happens
        before each shard's top-k cut, so the merge is exact."""
        p = self._plan(q, filter, mask)
        if p is None:
            s = Searcher(self.index, weighting=weighting)
            return s.search(q, limit=limit, filter=filter, mask=mask)
        futs = _fan_out(
            self._actors(p), "score", p.q, limit, p.gstats, weighting, p.fq, p.mq,
            timelimit=timelimit, _delay_per_table=_delay_per_table,
        )
        merged = _merge_replies(ray.get(futs), limit)
        if timed_out(merged):
            raise TimeLimit(merged, {"timed_out": True})
        return merged

    def search_async(
        self,
        q: Q.Query,
        limit: int | None = 10,
        weighting: WeightingModel | None = None,
        filter=None,
        mask=None,
    ) -> "ray.ObjectRef":
        """Non-blocking search: returns ONE ObjectRef resolving to the merged
        top-k table. The per-shard evaluations fan out to the actors as usual
        and the k-way merge runs as a small Ray task (k rows per shard), so a
        client can keep many queries in flight without the driver serializing
        on merges — the serving-throughput path benchmarked by
        ``bench.py --qps``. Queries needing the local fallback (Otherwise /
        Nested) resolve eagerly via ray.put."""
        p = self._plan(q, filter, mask)
        if p is None:
            s = Searcher(self.index, weighting=weighting)
            return ray.put(s.search(q, limit=limit, filter=filter, mask=mask))
        futs = _fan_out(
            self._actors(p), "score", p.q, limit, p.gstats, weighting, p.fq, p.mq
        )
        if not futs:
            return ray.put(_merge_replies([], limit))
        return _merge_topk_task.remote(limit, *futs)

    def search_many_async(
        self,
        queries: list[Q.Query],
        limit: int | None = 10,
        weighting: WeightingModel | None = None,
        timelimit: float | None = None,
        _delay_per_table: float = 0.0,
    ) -> "ray.ObjectRef":
        """Micro-batched non-blocking search: ONE remote call per actor for
        the whole batch plus one merge task, so the driver's per-query
        submission cost is ~(actors+1)/B remote calls. Returns an ObjectRef
        resolving to a list of merged top-k tables aligned with ``queries``.
        Queries needing the local fallback are evaluated eagerly.

        With more than one replica the batch splits ACROSS the replica
        groups, LPT-style: queries in descending estimated cost, each
        routed on its own (:meth:`_route`, continuing the pool's running
        balance). A strided split has the same aliasing failure as
        round-robin routing — a cyclic batch with period R lands every
        expensive query in one chunk. Each group's chunk goes to every
        actor of the group.

        With ``timelimit`` each query gets its OWN per-actor budget (the
        reference arms a TimeLimitCollector per search); the ref then
        resolves to a list of ``(table, timed_out)`` pairs — an async path
        can't raise per query, so the flag rides the result instead of a
        :class:`TimeLimit` exception. Local-fallback entries never time out
        (they evaluate driver-side in one shot, flag False)."""
        plans = [self._plan(q) for q in queries]
        remote = sorted(
            (i for i, p in enumerate(plans) if p is not None),
            key=lambda i: -plans[i].cost,
        )
        gstats: dict = {}
        by_group: dict[int, list[int]] = {}
        for i in remote:
            gstats.update(plans[i].gstats)
            by_group.setdefault(self._route(plans[i].cost), []).append(i)
        replies: list = []
        chunks: list[tuple[list[int], int]] = []
        for r, idxs in by_group.items():
            grp = self._replicas[r]
            replies += _fan_out(
                grp, "score_many", [plans[i].q for i in idxs], limit, gstats,
                weighting, timelimit=timelimit, _delay_per_table=_delay_per_table,
            )
            chunks.append((idxs, len(grp)))
        # fallbacks (Otherwise/Nested*) evaluate driver-side AFTER the remote
        # dispatch, so the actor fleet is already working while the driver
        # handles the (rare) global-semantics stragglers
        s = Searcher(self.index, weighting=weighting)
        local = {i: s.search(queries[i], limit=limit)
                 for i, p in enumerate(plans) if p is None}
        return _batch_task.remote(
            limit, timelimit is not None, len(queries), local, chunks, *replies
        )

    def wand_topk(
        self,
        terms: list[str],
        k: int = 10,
        weighting: WeightingModel | None = None,
        strategy: str = "auto",
        timelimit: float | None = None,
    ) -> tuple[pa.Table, dict]:
        """Distributed block-max WAND: each shard runs the skip-table
        cursor loop over ITS blocks (global idf via shipped stats), merged
        exactly like search(); only the actors holding a shard where some
        term occurs run it. With ``timelimit``, each actor's cursor loop
        checks the deadline per iteration; any expiry raises
        :class:`TimeLimit` carrying the merged partials."""
        p = self._stats_plan(Q.Or(*[Q.Term(t) for t in terms]), list(terms))
        results = ray.get(
            _fan_out(
                self._actors(p), "wand", list(terms), k, p.gstats, weighting,
                strategy, timelimit=timelimit,
            )
        )
        merged = _merge_replies([b for b, _s in results], k)
        stats: dict[str, float] = {}
        for _t, s in results:
            for key, v in s.items():
                if isinstance(v, (int, float)):
                    stats[key] = stats.get(key, 0) + v
                else:
                    stats[key] = v
        if stats.get("timed_out"):
            raise TimeLimit(merged, stats)
        return merged, stats

    def _attrs_dir_for(self, attrs_path: str, column: str) -> str:
        """Doc-sharded copy of the attribute table, partitioned with the
        SAME hash as the serving shards (built once, resumable): each actor
        then reads exactly its docs' rows — no id-list filters, no repeated
        full-column scans."""
        import hashlib

        from whoosh_novo_ray.index.docshard import build_attr_shards

        tag = hashlib.md5(
            f"{attrs_path}|{column}|{self._num_shards}".encode()
        ).hexdigest()[:12]
        out = os.path.join(self._serving_dirs[0], "attrs", tag)
        build_attr_shards(
            attrs_path,
            out,
            [column],
            self._num_shards,
            lineage=f"{attrs_path}|{column}",
            resume=True,
        )
        return out

    def facet_counts(
        self, q, attrs_path: str, column: str, weighting=None,
        timelimit: float | None = None, _delay_per_table: float = 0.0,
        filter=None, mask=None,
    ) -> pa.Table:
        """Distributed FacetCollector: per-shard partial key counts (each
        actor keys against ITS doc-sharded attribute partition) summed on
        the driver. Result identical to sorting.facet_counts over a
        FieldFacet, which answers a local-fallback query. With
        ``timelimit`` each actor counts under the budget (shard-table
        granularity); if any ran out, raises
        :class:`whoosh_novo_ray.search.wand.TimeLimit` carrying the partial
        counts (exact over the covered tables) in ``.partial``."""
        p = self._plan(q, filter, mask, wrap=True)
        if p is None:
            return sorting.facet_counts(
                Searcher(self.index, weighting=weighting), q,
                sorting.FieldFacet(attrs_path, column), filter, mask,
            )
        attrs_dir = self._attrs_dir_for(attrs_path, column)
        results = ray.get(
            _fan_out(
                self._actors(p), "facet_counts", p.q, p.gstats, attrs_dir,
                column, weighting,
                timelimit=timelimit, _delay_per_table=_delay_per_table,
            )
        )
        parts = [t for t in results if len(t)]
        if not parts:
            out = sorting.key_counts(np.empty(0, str))
        else:
            tbl = pa.concat_tables(parts)
            g = pa.TableGroupBy(tbl, "key").aggregate([("count", "sum")])
            g = g.rename_columns(["key", "count"])
            out = g.sort_by("key")
        if any(timed_out(t) for t in results):
            raise TimeLimit(out, {"timed_out": True})
        return out

    def collapse_search(
        self, q, attrs_path: str, column: str, per_key: int = 1,
        limit=None, weighting=None,
        timelimit: float | None = None, _delay_per_table: float = 0.0,
        order_column: str | None = None, filter=None, mask=None,
    ) -> pa.Table:
        """Distributed CollapseCollector: shards return their per-key best
        candidates (a superset of the global winners); the driver re-runs
        the collapse over the tiny union — exact. ``order_column`` selects
        the kept docs by LOWEST attribute value instead of result order
        (reference CollapseCollector order facet); falsy collapse keys are
        never eliminated. A local-fallback query runs
        sorting.collapse_search. With ``timelimit`` each actor works under
        the budget; any expiry raises :class:`TimeLimit` carrying the
        collapse over the covered tables in ``.partial``."""
        p = self._plan(q, filter, mask, wrap=True)
        if p is None:
            return sorting.collapse_search(
                Searcher(self.index, weighting=weighting), q,
                sorting.FieldFacet(attrs_path, column), per_key, limit,
                None if order_column is None
                else sorting.FieldFacet(attrs_path, order_column),
                filter, mask,
            )
        attrs_dir = self._attrs_dir_for(attrs_path, column)
        order_dir = (
            self._attrs_dir_for(attrs_path, order_column)
            if order_column is not None
            else None
        )
        results = ray.get(
            _fan_out(
                self._actors(p), "collapse_candidates", p.q, p.gstats,
                attrs_dir, column, per_key, weighting, order_dir, order_column,
                timelimit=timelimit, _delay_per_table=_delay_per_table,
            )
        )
        parts = [t for t in results if len(t)]
        if not parts:
            out = _empty_hits()
        else:
            tbl = pa.concat_tables(parts)
            out = sorting.collapse_table(
                tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
                tbl["score"].to_numpy(zero_copy_only=False),
                tbl["key"].to_numpy(zero_copy_only=False),
                per_key,
                tbl["okey"].to_numpy(zero_copy_only=False)
                if "okey" in tbl.column_names
                else None,
                limit,
            )
        if any(timed_out(t) for t in results):
            raise TimeLimit(out, {"timed_out": True})
        return out

    def sorted_search(
        self,
        q,
        attrs_path: str,
        columns,
        reverses=False,
        limit=None,
        weighting=None,
        filter=None,
        mask=None,
    ) -> pa.Table:
        """Distributed SortingCollector: each shard returns its matches
        ranked by the sort columns and truncated to ``limit`` (a superset
        of the global winners); the driver re-ranks the union on the RAW
        key values — exact, and numerics compare as numbers end-to-end.
        ``columns`` is a column name or list; ``reverses`` a flag or
        per-column list (reference sortedby=[FieldFacet(a),
        FieldFacet(b, reverse=True)]). Output matches the local
        ``sorting.sorted_search`` (doc_id, key, score), which answers a
        local-fallback query."""
        if isinstance(columns, str):
            columns = [columns]
        if isinstance(reverses, bool):
            reverses = [reverses] * len(columns)
        p = self._plan(q, filter, mask, wrap=True)
        if p is None:
            sub = [sorting.FieldFacet(attrs_path, c, r) for c, r in zip(columns, reverses)]
            return sorting.sorted_search(
                Searcher(self.index, weighting=weighting), q,
                sub[0] if len(sub) == 1 else sorting.MultiFacet(sub),
                limit=limit, filter=filter, mask=mask,
            )
        attrs_dirs = [self._attrs_dir_for(attrs_path, c) for c in columns]
        futs = _fan_out(
            self._actors(p), "sorted_candidates", p.q, p.gstats, attrs_dirs,
            columns, list(reverses), limit, weighting,
        )
        parts = [t for t in ray.get(futs) if len(t)]
        if not parts:
            return _empty_hits()
        tbl = pa.concat_tables(parts)
        return sorting.sorted_table(
            tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
            tbl["score"].to_numpy(zero_copy_only=False),
            [tbl[f"k{i}"].to_numpy(zero_copy_only=False) for i in range(len(columns))],
            reverses,
            limit,
        )

    def shutdown(self) -> None:
        for grp in self._replicas:
            for a in grp:
                ray.kill(a)
        self._replicas = [[]]
