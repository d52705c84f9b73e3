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
  * rewrite multi-term queries (Prefix/Wildcard/Regex/TermRange/Fuzzy/
    Variations) into concrete Term trees against the MAIN index's term
    dictionary — expansion rules (single-term = scored, multi-term
    constantscore) depend on the GLOBAL lexicon, not a shard's slice;
  * fetch global per-term stats once per term (a block-index lookup in the
    main index's open-once bucket files, cached across queries);
  * k-way-merge the per-shard top-k tables with the reference tie-break.

Queries whose semantics are inherently global-order-dependent (Otherwise's
"b only if a matches NOTHING anywhere", NestedParent/NestedChildren block
joins that need doc-contiguity) fall back to the driver-side Searcher.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from whoosh_novo_ray.index.build import MANIFEST_NAME
from whoosh_novo_ray.index.docshard import (
    SERVING_SUBDIR,
    build_serving_shards,
    serving_dir_for,
)
from whoosh_novo_ray.index.segment import (
    _SCORING_COLUMNS,
    Index,
    _LRUCache,
    _row_to_termrow,
    _TermBlocks,
)
from whoosh_novo_ray.search import query as Q
from whoosh_novo_ray.search.searcher import Searcher, _in_sorted
from whoosh_novo_ray.search.scoring import WeightingModel
from whoosh_novo_ray.search.sorting import collapse_keep_mask, falsy_key_mask


# lazily loaded positional row groups an actor keeps (shared by all of its
# pinned files; cache_sizes() reports the entry count)
BLOCK_CACHE_ROW_GROUPS = 16


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

    Term lookups binary-search the pinned tables' sorted term columns (no
    I/O); term stats come from the driver-shipped global map, so idf / SQR
    coordination / WAND block-max thresholds all see the whole collection.

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
        tables: list[pa.Table],
        terms: list[np.ndarray],
        blocks: list[_TermBlocks],
        gstats: dict[str, tuple[int, float, float]],
        weighting: WeightingModel | None = None,
        lazy_cols: tuple[str, ...] = (),
    ):
        super().__init__(view, weighting=weighting)  # type: ignore[arg-type]
        self._tables = tables
        self._gstats = gstats
        self._universe = view._universe
        # aligned with tables: each one's sorted term column, and its
        # file's block index — positional/chars blob columns are NOT pinned
        # in RAM, they are read per row group on first positional use
        self._terms = terms
        self._blocks = blocks
        self._lazy_cols = lazy_cols

    def _with_weighting(self, weighting: WeightingModel) -> "ShardSearcher":
        sub = ShardSearcher(
            self.index, self._tables, self._terms, self._blocks, self._gstats,
            weighting, lazy_cols=self._lazy_cols,
        )
        sub._term_cache = self._term_cache
        return sub

    def prefetch_terms(self, terms: list[str], with_positions: bool = False) -> None:
        missing = [t for t in set(terms) if (t, with_positions) not in self._term_cache]
        lazy = self._lazy_cols if with_positions else ()
        for t in missing:
            rows = self._term_cache[(t, with_positions)] = []
            for k, tarr in enumerate(self._terms):
                i = int(np.searchsorted(tarr, t, "left"))
                j = int(np.searchsorted(tarr, t, "right"))
                rows.extend(self._term_row(k, r, lazy) for r in range(i, j))

    def _term_row(self, k: int, r: int, lazy: tuple[str, ...]):
        """Row ``r`` of pinned table ``k``. Pinned rows line up with file
        rows, so the lazy positional columns are the same row of the
        file's row group (cached in the actor's block LRU; ``take`` copies
        the row out so cached TermRows never pin a whole group's blobs)."""
        sub = self._tables[k].slice(r, 1)
        if lazy:
            tb = self._blocks[k]
            g, off = tb.locate_row(r)
            extra = tb.read(g, lazy).take([off])
            for name in lazy:
                sub = sub.append_column(name, extra[name])
        return _row_to_termrow(sub, 0, bool(lazy), bool(lazy))

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


# canonical implementation lives in search.sorting (shared with the local
# collapse_search); kept under the old private name for in-module callers
_collapse_keep_mask = collapse_keep_mask


def _collapse_sel_order(
    ids: np.ndarray, scores: np.ndarray, okeys: np.ndarray | None
) -> np.ndarray:
    """Selection-priority permutation for a collapse: lowest order-facet
    key first (doc_id tiebreak) when an orderer is given — reference
    CollapseCollector collectors.py:976-982 — else result order
    (score desc, doc_id asc)."""
    if okeys is not None:
        _u, orank = np.unique(okeys, return_inverse=True)
        return np.lexsort((ids, orank))
    return np.lexsort((ids, -scores))


@ray.remote(max_restarts=4, max_task_retries=2)
class ScoreServer:
    """Pins a set of doc shards; evaluates queries over them end-to-end.

    Fault-tolerant: every method is a pure read over the on-disk serving
    layout, so a crashed actor restarts (re-pins its shards from the same
    parquet) and the in-flight task retries transparently — on a long-lived
    multi-node fleet individual workers WILL die. Caches rebuild lazily."""

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
        # Pin ONLY the scoring columns (+ wts_blob, which rides the tf slot
        # in scoring): positional/chars/per-occurrence-boost blobs are the
        # bulk of a positions-enabled segment and most queries never touch
        # them — at fleet scale pinning them would hold the full uncompressed
        # posting set in cluster RAM. They lazy-load per term on first
        # positional use (ShardSearcher.prefetch_terms).
        _LAZY = (
            "block_pos_off", "pos_blob",
            "block_chars_off", "chars_blob",
            "pboosts_blob",
        )
        def _dm_universe(d: str, k: int) -> np.ndarray:
            p = os.path.join(d, "docmeta", f"bucket={k:05d}.parquet")
            if not os.path.exists(p):
                return np.empty(0, np.uint64)
            return np.sort(
                pq.read_table(p, columns=["doc_id"])["doc_id"]
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
            )

        self._tables: list[pa.Table] = []
        # per pinned table: its sorted term column (term lookups are a
        # binary search) and its file's block index (lazy columns)
        self._terms: list[np.ndarray] = []
        self._blocks: list[_TermBlocks] = []
        self._block_cache = _LRUCache(BLOCK_CACHE_ROW_GROUPS)
        self._lazy_cols: tuple[str, ...] = ()
        self._table_shards: list[int] = []  # bucket id per pinned table
        # per-TABLE doc universe: with multi-member serving, several tables
        # share a shard id but partition its docs — the deadline path's
        # per-table evaluation needs the table's OWN universe (a shard-wide
        # one would duplicate Not/Every/Column matches across members)
        self._table_universe: list[np.ndarray] = []
        for d, man in zip(dirs, mans):
            for b in man["buckets"]:
                if b["bucket"] in shards and b["path"]:
                    p = os.path.join(d, b["path"])
                    names = pq.read_schema(p).names
                    pin = [c for c in _SCORING_COLUMNS if c in names]
                    if "wts_blob" in names:
                        pin.append("wts_blob")
                    self._lazy_cols = tuple(c for c in _LAZY if c in names)
                    tbl = pq.read_table(p, columns=pin)
                    self._tables.append(tbl)
                    self._terms.append(tbl["term"].to_numpy(zero_copy_only=False))
                    self._blocks.append(_TermBlocks(p, self._block_cache))
                    self._table_shards.append(int(b["bucket"]))
                    self._table_universe.append(_dm_universe(d, int(b["bucket"])))
        self._shard_universe: dict[int, np.ndarray] = {}
        parts = []
        for k in shards:
            k_parts = [
                _dm_universe(d, k)
                for d in dirs
                if os.path.exists(
                    os.path.join(d, "docmeta", f"bucket={k:05d}.parquet")
                )
            ]
            if k_parts:
                u = np.sort(np.concatenate(k_parts))
                self._shard_universe[k] = u
                parts.append(u)
        self._universe = (
            np.sort(np.concatenate(parts))
            if parts
            else np.empty(0, np.uint64)
        )
        # decoded-TermRow cache shared across queries: the pinned tables are
        # immutable, so rows only ever need filtering once per (term,
        # with_positions). Bounded: cleared past 50k entries (stopword-grade
        # terms dominate reuse long before that).
        self._tcache: dict = {}
        # per-table caches for the deadline path (same bound via _searcher)
        self._table_caches: dict[int, dict] = {}

    def _searcher(self, gstats, weighting) -> ShardSearcher:
        view = _GlobalStatsView(self._doc_count, self._tfl, self._universe)
        s = ShardSearcher(
            view, self._tables, self._terms, self._blocks, gstats, weighting,
            lazy_cols=self._lazy_cols,
        )
        if len(self._tcache) > 50_000:
            self._tcache.clear()
        s._term_cache = self._tcache
        return s

    def pinned_bytes(self) -> int:
        """RAM held by the pinned scoring tables (the lazy-pinning metric)."""
        return int(sum(t.nbytes for t in self._tables))

    def cache_sizes(self) -> dict[str, int]:
        """Entry counts of the per-actor caches (soak-test observability:
        long-running serving must hold these flat/bounded)."""
        return {
            "term_cache": len(self._tcache),
            "attr_cache": len(self._attr_cache),
            "block_cache": len(self._block_cache),
        }

    def rss_bytes(self) -> int:
        """This actor process's resident set size (the fleet-memory metric
        pinned_bytes approximates from the table side)."""
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    def score(
        self,
        q: Q.Query,
        limit: int | None,
        gstats: dict[str, tuple[int, float, float]],
        weighting: WeightingModel | None = None,
        fq=None,
        mq=None,
    ) -> pa.Table:
        """Top-``limit`` (score desc, doc_id asc) over THIS actor's docs.

        ``fq`` / ``mq``: FilterCollector allow/restrict (reference
        collectors.py:659-763) — a Query evaluated against THIS shard's
        docs, or a pre-sorted global doc-id array. Per-shard filtering
        before the per-shard top-k cut composes exactly: the global merge
        of post-filter shard top-k's is the post-filter global top-k."""
        return self._searcher(gstats, weighting).search(
            q, limit=limit, filter=fq, mask=mq
        )

    def _bound_table_caches(self) -> None:
        if sum(len(c) for c in self._table_caches.values()) > 50_000:
            self._table_caches.clear()

    def _table_searcher(self, i: int, gstats, weighting) -> ShardSearcher:
        """Per-TABLE searcher for the deadline paths (the shared whole-actor
        TermRow cache is keyed by term only, so sub-searchers over different
        table subsets must not share it) with its own persistent per-table
        cache, so repeated deadline queries stay warm."""
        view = _GlobalStatsView(
            self._doc_count,
            self._tfl,
            self._table_universe[i],
        )
        s = ShardSearcher(
            view, [self._tables[i]], [self._terms[i]], [self._blocks[i]],
            gstats, weighting, lazy_cols=self._lazy_cols,
        )
        s._term_cache = self._table_caches.setdefault(i, {})
        return s

    def score_deadline(
        self,
        q: Q.Query,
        limit: int | None,
        gstats: dict[str, tuple[int, float, float]],
        budget_s: float,
        weighting: WeightingModel | None = None,
        _delay_per_table: float = 0.0,
        fq=None,
        mq=None,
    ) -> tuple[pa.Table, bool]:
        """Time-budgeted evaluation (reference TimeLimitCollector,
        collectors.py:1012-1107: on expiry the partial results collected so
        far remain available). The vectorized eval can't be interrupted
        mid-kernel, so the check granularity is one pinned shard TABLE: the
        actor searches its tables one at a time (scores are identical —
        they depend only on the driver-shipped global stats — and shards
        partition the doc space, so the per-table merge is exact) and checks
        the clock before each. Returns (partial-or-full top-k, timed_out).

        ``_delay_per_table`` is a test hook: sleep that long before each
        table so deadline crossings land at deterministic table boundaries.
        """
        import time as _time

        self._bound_table_caches()
        t0 = _time.perf_counter()
        parts: list[pa.Table] = []
        timed_out = False
        for i in range(len(self._tables)):
            if _time.perf_counter() - t0 > budget_s:
                timed_out = True
                break
            if _delay_per_table:
                _time.sleep(_delay_per_table)
            parts.append(
                self._table_searcher(i, gstats, weighting).search(
                    q, limit=limit, filter=fq, mask=mq
                )
            )
        return _merge_topk(parts, limit), timed_out

    def score_many_deadline(
        self,
        qs: list[Q.Query],
        limit: int | None,
        gstats: dict[str, tuple[int, float, float]],
        budget_s: float,
        weighting: WeightingModel | None = None,
        _delay_per_table: float = 0.0,
    ) -> tuple[list[pa.Table], list[bool]]:
        """Micro-batch with a PER-QUERY deadline: each search gets its own
        ``budget_s`` clock (the reference's TimeLimitCollector is armed per
        search, so a batch is B independent deadlines, not one shared one).
        Returns (tables, timed_out flags) aligned with ``qs``."""
        tables: list[pa.Table] = []
        flags: list[bool] = []
        for q in qs:
            t, to = self.score_deadline(
                q, limit, gstats, budget_s, weighting, _delay_per_table
            )
            tables.append(t)
            flags.append(to)
        return tables, flags

    def score_many(
        self,
        qs: list[Q.Query],
        limit: int | None,
        gstats: dict[str, tuple[int, float, float]],
        weighting: WeightingModel | None = None,
    ) -> list[pa.Table]:
        """One remote round-trip for a MICRO-BATCH of queries (the serving
        throughput path): Ray task submission costs ~0.5 ms per call on the
        driver, so fanning out per query caps a pool at ~200 QPS regardless
        of actor count — batching B queries per call divides that by B.
        ``gstats`` is the union map for the whole batch."""
        s = self._searcher(gstats, weighting)
        return [s.search(q, limit=limit) for q in qs]

    def wand(
        self,
        terms: list[str],
        k: int,
        gstats: dict[str, tuple[int, float, float]],
        weighting: WeightingModel | None = None,
        strategy: str = "auto",
        timelimit: float | None = None,
    ) -> tuple[pa.Table, dict]:
        from whoosh_novo_ray.search.wand import TimeLimit, searcher_wand_topk

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
                    [pq.read_table(f, columns=["doc_id", column]) for f in files]
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

    def _matched_keys(self, q, gstats, attrs_dir, column, weighting):
        """(ids, scores, keys) for THIS shard's matches: key lookup is a
        searchsorted into the actor's own attribute partition. Matched docs
        MISSING from the attrs table are dropped (mirroring the None-key
        masking in sorting.facet_counts) rather than taking an out-of-bounds
        position or a neighbor's key."""
        return self._matched_keys_for(
            self._searcher(gstats, weighting), q, attrs_dir, column
        )

    def _matched_keys_for(self, s: "Searcher", q, attrs_dir, column):
        ids, scores = s.postings(q)
        if not len(ids):
            return ids, scores, np.empty(0, object)
        tbl = self._attr_table(attrs_dir, column)
        aid = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pos = np.searchsorted(aid, ids)
        found = pos < len(aid)
        found[found] &= aid[pos[found]] == ids[found]
        if not found.all():
            ids, scores, pos = ids[found], scores[found], pos[found]
        if not len(ids):
            return ids, scores, np.empty(0, object)
        keys = tbl[column].take(pa.array(pos)).to_numpy(zero_copy_only=False)
        return ids, scores, keys

    def _keys_at(self, attrs_dir: str, column: str, ids: np.ndarray):
        """Attribute values aligned to ``ids`` (used for the collapse ORDER
        column, on ids already validated against the key column); an id
        missing from this partition gets a null key."""
        tbl = self._attr_table(attrs_dir, column)
        aid = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pos = np.searchsorted(aid, ids)
        found = pos < len(aid)
        found[found] &= aid[pos[found]] == ids[found]
        out = np.full(len(ids), None, object)
        if found.any():
            out[found] = (
                tbl[column]
                .take(pa.array(pos[found]))
                .to_numpy(zero_copy_only=False)
            )
        return out

    def facet_counts(
        self, q, gstats, attrs_dir: str, column: str, weighting=None
    ) -> pa.Table:
        """Partial per-key matched-doc counts over THIS shard."""
        ids, _scores, keys = self._matched_keys(
            q, gstats, attrs_dir, column, weighting
        )
        if not len(ids):
            return pa.table(
                {"key": pa.array([], pa.string()), "count": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(keys.astype(str), return_counts=True)
        return pa.table(
            {
                "key": pa.array(uniq, pa.string()),
                "count": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def facet_counts_deadline(
        self,
        q,
        gstats,
        attrs_dir: str,
        column: str,
        budget_s: float,
        weighting=None,
        _delay_per_table: float = 0.0,
    ) -> tuple[pa.Table, bool]:
        """Time-budgeted facet counts (TimeLimitCollector wrapping a
        FacetCollector): one pinned table at a time under the clock; counts
        over the tables that finished are exact (tables partition the doc
        space), coverage is partial when ``timed_out``."""
        import time as _time

        self._bound_table_caches()
        t0 = _time.perf_counter()
        key_parts: list[np.ndarray] = []
        timed_out = False
        for i in range(len(self._tables)):
            if _time.perf_counter() - t0 > budget_s:
                timed_out = True
                break
            if _delay_per_table:
                _time.sleep(_delay_per_table)
            s = self._table_searcher(i, gstats, weighting)
            ids, _scores, keys = self._matched_keys_for(s, q, attrs_dir, column)
            if len(ids):
                key_parts.append(keys.astype(str))
        if not key_parts:
            empty = pa.table(
                {"key": pa.array([], pa.string()), "count": pa.array([], pa.int64())}
            )
            return empty, timed_out
        uniq, counts = np.unique(np.concatenate(key_parts), return_counts=True)
        return (
            pa.table(
                {
                    "key": pa.array(uniq, pa.string()),
                    "count": pa.array(counts.astype(np.int64), pa.int64()),
                }
            ),
            timed_out,
        )

    def collapse_candidates_deadline(
        self,
        q,
        gstats,
        attrs_dir: str,
        column: str,
        per_key: int,
        budget_s: float,
        weighting=None,
        _delay_per_table: float = 0.0,
        order_dir: str | None = None,
        order_column: str | None = None,
    ) -> tuple[pa.Table, bool]:
        """Time-budgeted per-key best candidates: per-table evaluation under
        the clock, then one keep-pass over the union — still a superset of
        the global winners for the covered tables."""
        import time as _time

        self._bound_table_caches()
        t0 = _time.perf_counter()
        id_parts: list[np.ndarray] = []
        sc_parts: list[np.ndarray] = []
        key_parts: list[np.ndarray] = []
        okey_parts: list[np.ndarray] = []
        timed_out = False
        for i in range(len(self._tables)):
            if _time.perf_counter() - t0 > budget_s:
                timed_out = True
                break
            if _delay_per_table:
                _time.sleep(_delay_per_table)
            s = self._table_searcher(i, gstats, weighting)
            ids, scores, keys = self._matched_keys_for(s, q, attrs_dir, column)
            if len(ids):
                id_parts.append(ids)
                sc_parts.append(scores)
                key_parts.append(keys)
                if order_column is not None:
                    okey_parts.append(
                        self._keys_at(order_dir, order_column, ids)
                    )
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.uint64()),
                "key": pa.array([], pa.string()),
                "score": pa.array([], pa.float64()),
            }
        )
        if not id_parts:
            return empty, timed_out
        ids = np.concatenate(id_parts)
        scores = np.concatenate(sc_parts)
        keys = np.concatenate(key_parts)
        okeys = (
            np.concatenate(okey_parts) if order_column is not None else None
        )
        order = _collapse_sel_order(ids, scores, okeys)
        ids, scores, keys = ids[order], scores[order], keys[order]
        keep = _collapse_keep_mask(keys.astype(str), per_key)
        keep |= falsy_key_mask(keys)
        cols = {
            "doc_id": pa.array(ids[keep], pa.uint64()),
            "key": pa.array(keys[keep]),
            "score": pa.array(scores[keep], pa.float64()),
        }
        if okeys is not None:
            cols["okey"] = pa.array(okeys[order][keep])
        return pa.table(cols), timed_out

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
    ) -> pa.Table:
        """THIS shard's best ``per_key`` hits per collapse key — a superset
        of the global winners (any global winner is within its shard's
        per-key top, and falsy-key docs are never eliminated), so the
        driver's re-collapse over the union is exact. With an order column
        the shard also ships each candidate's order key (raw type) for the
        driver's global re-selection."""
        ids, scores, keys = self._matched_keys(
            q, gstats, attrs_dir, column, weighting
        )
        if not len(ids):
            cols = {
                "doc_id": pa.array([], pa.uint64()),
                "key": pa.array([], pa.string()),
                "score": pa.array([], pa.float64()),
            }
            return pa.table(cols)
        okeys = None
        if order_column is not None:
            okeys = self._keys_at(order_dir, order_column, ids)
        order = _collapse_sel_order(ids, scores, okeys)
        ids, scores, keys = ids[order], scores[order], keys[order]
        keep = _collapse_keep_mask(keys.astype(str), per_key)
        keep |= falsy_key_mask(keys)
        cols = {
            "doc_id": pa.array(ids[keep], pa.uint64()),
            "key": pa.array(keys[keep]),
            "score": pa.array(scores[keep], pa.float64()),
        }
        if okeys is not None:
            cols["okey"] = pa.array(okeys[order][keep])
        return pa.table(cols)

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
            q, gstats, attrs_dirs[0], columns[0], weighting
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
        ranks = []
        for k, rev in zip(keysets, reverses):
            rank = np.unique(k, return_inverse=True)[1]
            ranks.append(-rank if rev else rank)
        order = np.lexsort((ids, *reversed(ranks)))
        if limit is not None:
            order = order[:limit]
        out = {
            "doc_id": pa.array(ids[order], pa.uint64()),
            "score": pa.array(scores[order], pa.float64()),
        }
        for i, k in enumerate(keysets):
            out[f"k{i}"] = pa.array(k[order])
        return pa.table(out)

    def ping(self) -> bool:
        return True


@ray.remote(num_cpus=0.25)
def _merge_topk_task(limit: int | None, *parts: pa.Table) -> pa.Table:
    """Task-shaped _merge_topk for the async serving path (search_async)."""
    return _merge_topk(list(parts), limit)


@ray.remote(num_cpus=0.25)
def _merge_many_task(
    limit: int | None, *actor_results: list[pa.Table]
) -> list[pa.Table]:
    """Merge a micro-batch: one aligned result list per actor."""
    n = len(actor_results[0])
    return [_merge_topk([ar[i] for ar in actor_results], limit) for i in range(n)]


@ray.remote(num_cpus=0.25)
def _merge_many_deadline_task(
    limit: int | None, *actor_results: tuple[list[pa.Table], list[bool]]
) -> list[tuple[pa.Table, bool]]:
    """Merge a deadline micro-batch: each actor ships (tables, flags); a
    query's merged flag is True when ANY actor ran out on it."""
    n = len(actor_results[0][0])
    return [
        (
            _merge_topk([ar[0][i] for ar in actor_results], limit),
            any(ar[1][i] for ar in actor_results),
        )
        for i in range(n)
    ]


@ray.remote(num_cpus=0)
def _scatter_task(
    n: int, idx_lists: list[list[int]], *chunks: list[pa.Table]
) -> list[pa.Table]:
    """Put each replica chunk's results back at their original batch
    positions (chunks are cost-balanced, not strided)."""
    out: list = [None] * n
    for idxs, chunk in zip(idx_lists, chunks):
        for i, t in zip(idxs, chunk):
            out[i] = t
    return out


@ray.remote(num_cpus=0)
def _splice_task(
    n: int, local: dict[int, pa.Table], merged: list[pa.Table]
) -> list[pa.Table]:
    """Put eagerly-evaluated fallback results back in their batch slots."""
    out, j = [], 0
    for i in range(n):
        if i in local:
            out.append(local[i])
        else:
            out.append(merged[j])
            j += 1
    return out


def _merge_topk(parts: list[pa.Table], limit: int | None) -> pa.Table:
    """k-way merge of per-shard result tables — the reference tie-break
    (score desc, doc_id asc), truncated to limit. Shards partition the doc
    space, so every global top-k doc appears in exactly one part and within
    that part's top-k: concatenation + lexsort is exact."""
    parts = [p for p in parts if len(p)]
    if not parts:
        return pa.table(
            {
                "doc_id": pa.array([], pa.uint64()),
                "score": pa.array([], pa.float64()),
            }
        )
    ids = np.concatenate(
        [p["doc_id"].to_numpy(zero_copy_only=False) for p in parts]
    ).astype(np.uint64)
    scores = np.concatenate(
        [p["score"].to_numpy(zero_copy_only=False) for p in parts]
    ).astype(np.float64)
    order = np.lexsort((ids, -scores))
    if limit is not None:
        order = order[:limit]
    return pa.table(
        {
            "doc_id": pa.array(ids[order], pa.uint64()),
            "score": pa.array(scores[order], pa.float64()),
        }
    )


class ScorePool:
    """Pool of doc-shard scoring actors + the driver-side query planner."""

    def __init__(
        self,
        index_path: str | list[str],
        num_actors: int = 4,
        num_shards: int | None = None,
        serving_dir: str | None = None,
        num_replicas: int = 1,
        member_serving_dirs: list[str] | None = None,
    ):
        """``index_path`` may be a list of doc-disjoint member index dirs
        (a generational MultiIndex): the serving shards union them, so a
        MERGE_SMALL generation serves through the same actor pool.

        ``num_replicas`` > 1 creates REPLICA GROUPS: full copies of the
        shard-set actor fleet, with each query routed (round-robin) to ONE
        replica and fanned out only within it. Fan-out-to-all throughput
        knees once per-actor per-query work approaches the ~1 ms dispatch
        floor (BASELINE.md round-3 QPS anatomy); past that knee more actors
        per replica buy nothing — more REPLICAS buy linear QPS at the cost
        of pinning the (scoring-column) shard set once per replica."""
        if isinstance(index_path, str):
            self.index = Index(index_path)
            serving_dir = serving_dir or serving_dir_for(index_path)
        else:
            from whoosh_novo_ray.index.multi import MultiIndex

            self.index = MultiIndex(list(index_path))
            if serving_dir is None and member_serving_dirs is None:
                raise ValueError(
                    "multi-member ScorePool needs serving_dir or "
                    "member_serving_dirs"
                )
        # shard count scales with the CLUSTER, not the actor count: the
        # doc-shard shuffle/encode parallelism is num_shards-bounded
        # (measured 3.5x on a 1M-doc rebuild going 16 -> 64 shards at 32
        # cpus) while query latency is flat — actors just pin more,
        # smaller tables
        if num_shards is None:
            from whoosh_novo_ray.index.docshard import default_num_shards

            num_shards = default_num_shards(num_actors)
        if member_serving_dirs is not None:
            # incremental serving: one serving shard set PER MEMBER (same
            # doc hash + shard count), built with resume — member dirs are
            # immutable, so only members new to this generation re-encode;
            # the actors pin shard k's table from every member
            members = (
                list(index_path) if isinstance(index_path, list) else [index_path]
            )
            if len(members) != len(member_serving_dirs):
                raise ValueError("one serving dir per member required")
            mans = [
                build_serving_shards(m, num_shards=num_shards, out_dir=d)
                for m, d in zip(members, member_serving_dirs)
            ]
            self._serving_dirs = list(member_serving_dirs)
            all_shards = sorted(
                {b["bucket"] for man in mans for b in man["buckets"] if b["path"]}
            )
        else:
            man = build_serving_shards(
                index_path, num_shards=num_shards, out_dir=serving_dir
            )
            self._serving_dirs = [serving_dir]
            all_shards = sorted(b["bucket"] for b in man["buckets"])
        self._serving_dir = self._serving_dirs[0]
        self._num_shards = num_shards
        assignments: list[list[int]] = [[] for _ in range(num_actors)]
        for i, k in enumerate(all_shards):
            assignments[i % num_actors].append(k)
        self._assignments = [ks for ks in assignments if ks]
        self._replicas: list[list] = [
            self._spawn_replica() for _ in range(max(1, num_replicas))
        ]
        self._actors = self._replicas[0]
        self._replica_load = [0.0] * len(self._replicas)
        ray.get([a.ping.remote() for grp in self._replicas for a in grp])
        self._stats_cache: _LRUCache = _LRUCache(200_000)
        self._driver_searcher = Searcher(self.index)

    def _spawn_replica(self) -> list:
        dirs = (
            self._serving_dirs
            if len(self._serving_dirs) > 1
            else self._serving_dirs[0]
        )
        return [ScoreServer.remote(dirs, ks) for ks in self._assignments]

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
        if self._actors is grp:  # keep the direct-handle alias valid
            self._actors = self._replicas[0]
        ray.get([a.ping.remote() for a in grp])  # drain
        for a in grp:
            ray.kill(a)
        return len(self._replicas)

    @classmethod
    def for_generational(cls, gi, num_actors: int = 4, num_shards: int | None = None):
        """Serving pool over a GenerationalIndex's CURRENT generation —
        INCREMENTAL: each member segment set gets its own serving shard set
        under ``<member>/serving`` (resume keyed on the member's lineage +
        shard count). Member dirs are immutable (commits add new member
        dirs; deletes rewrite affected members into new dirs), so a delta
        commit re-encodes ONLY the new member(s); unchanged members' serving
        sets are reused as-is and the actors pin shard k from every member."""
        members = gi._members(gi.current_path())
        return cls(
            members if len(members) > 1 else members[0],
            num_actors=num_actors,
            num_shards=num_shards,
            member_serving_dirs=[
                os.path.join(m, SERVING_SUBDIR) for m in members
            ],
        )

    # -- planning ------------------------------------------------------------

    def _gstats(self, terms: list[str]) -> dict[str, tuple[int, float, float]]:
        missing = [t for t in set(terms) if t not in self._stats_cache]
        if missing:
            self._stats_cache.update(self.index.term_stats_many(missing))
        return {t: self._stats_cache[t] for t in set(terms)}

    def _rewrite(self, q: Q.Query) -> Q.Query:
        """Expand multi-term nodes against the GLOBAL term dictionary so
        per-shard evaluation can't diverge from single-process semantics
        (single-vs-multi expansion scoring, live-variant filtering)."""
        ds = self._driver_searcher
        if isinstance(q, (Q.Prefix, Q.Wildcard, Q.Regex, Q.TermRange)):
            expanded = ds.expand(q)
            if not expanded:
                return Q.NULL
            if len(expanded) == 1:
                return Q.Term(expanded[0], boost=q.boost)
            # constant only when the reference's Or heuristic picks the
            # array matcher (k and GLOBAL doc count decide — must match the
            # single-process Searcher, so use the main index's count);
            # see searcher.multiterm_constant_score
            from whoosh_novo_ray.search.searcher import multiterm_constant_score

            if q.constantscore and multiterm_constant_score(
                len(expanded), ds.index.doc_count
            ):
                return Q.ConstantScore(
                    Q.Or(*[Q.Term(t) for t in expanded]), score=q.boost
                )
            return Q.Or(*[Q.Term(t, boost=q.boost) for t in expanded])
        from whoosh_novo_ray.search.fuzzy import FuzzyTerm, evaluate_fuzzy

        if isinstance(q, FuzzyTerm):
            expanded = evaluate_fuzzy(ds, q)
            if expanded is None:
                return Q.NULL
            if isinstance(expanded, tuple):
                _tag, terms, boost = expanded
                return Q.ConstantScore(
                    Q.Or(*[Q.Term(t) for t in terms]), score=boost
                )
            return self._rewrite(expanded)
        if isinstance(q, Q.Variations):
            from whoosh_novo_ray.lang_morph import variations as _morph

            cands = sorted(set(_morph(q.text)))
            stats = self._gstats(cands)
            live = [t for t in cands if stats[t][0] > 0]
            if not live:
                return Q.NULL
            if len(live) == 1:
                return Q.Term(live[0], boost=q.boost)
            return Q.Or(*[Q.Term(t, boost=q.boost) for t in live])
        if isinstance(q, Q.Or):
            return Q.Or(
                *[self._rewrite(c) for c in q.children],
                scale=getattr(q, "scale", None),
            )
        if isinstance(q, (Q.And, Q.DisMax)):
            return type(q)(*[self._rewrite(c) for c in q.children])
        if isinstance(q, (Q.AndNot, Q.Require, Q.AndMaybe)):
            return type(q)(self._rewrite(q.a), self._rewrite(q.b))
        if isinstance(q, Q.ConstantScore):
            return Q.ConstantScore(self._rewrite(q.child), score=q.score)
        if isinstance(q, Q.WeightingQuery):
            return Q.WeightingQuery(self._rewrite(q.child), q.weighting)
        if isinstance(q, (Q.Sequence, Q.Ordered)):
            kids = []
            for c in q.children:
                if isinstance(c, (Q.Prefix, Q.Wildcard, Q.Regex, Q.TermRange)):
                    terms = ds.expand(c)
                    if not terms:
                        return Q.NULL
                    kids.append(
                        Q.Term(terms[0])
                        if len(terms) == 1
                        else Q.Or(*[Q.Term(t) for t in terms])
                    )
                else:
                    kids.append(c)
            if isinstance(q, Q.Sequence):
                return Q.Sequence(*kids, slop=q.slop, boost=q.boost)
            return Q.Ordered(*kids, boost=q.boost)
        return q

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
        """Global-order-dependent nodes evaluate driver-side."""
        for leaf in q.leaves():
            if isinstance(leaf, (Q.NestedParent, Q.NestedChildren)):
                return True
        # Otherwise does not yield itself from leaves(); walk containers
        stack = [q]
        while stack:
            node = stack.pop()
            if isinstance(node, Q.Otherwise):
                return True
            for attr in ("children",):
                stack.extend(getattr(node, attr, ()) or ())
            for attr in (
                "a", "b", "child", "subq", "parents", "parents_q",
                "allow", "restrict",
            ):
                c = getattr(node, attr, None)
                if isinstance(c, Q.Query):
                    stack.append(c)
        return False

    def _est_cost(self, gstats, stat_terms) -> float:
        """Per-query work estimate for replica routing: postings scored is
        the dominant cost and equals the df sum of the query's terms (+1 so
        zero-df queries still advance the balance)."""
        return 1.0 + float(sum(gstats.get(t, (0,))[0] for t in stat_terms))

    def _route(self, cost: float = 1.0) -> list:
        """Pick a replica's actor set, LEAST-LOADED by accumulated estimated
        cost. Plain round-robin aliases against cyclic workloads (with R
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
        return self._replicas[r]

    # -- search --------------------------------------------------------------

    def _norm_filter(self, obj, put: bool = True) -> tuple[object, list[str]]:
        """Driver-side normalization of a FilterCollector allow/restrict arg
        (reference collectors.py:659-763). A Query ships to the shards and
        each actor computes its LOCAL comb (the scale path — the filter's
        posting set never leaves the actors); a results table / set-like
        becomes ONE sorted unique id array, ray.put once when large so N
        actors share a single object-store copy. Returns (normalized,
        stat_terms_needed)."""
        if obj is None:
            return None, []
        if isinstance(obj, Q.Query):
            if isinstance(obj, Q.NullQuery):
                return None, []  # falsy in the reference — filtering off
            q2 = self._rewrite(obj)
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

    def _wrap_filter(self, q2: Q.Query, filter, mask) -> Q.Query:
        """Fold allow/restrict into the (already rewritten) query as a
        :class:`Q.Filtered` wrapper — the facet/collapse/sorted actor paths
        then filter with no extra plumbing (query-form filters still
        evaluate per shard inside the actors). Set-likes stay inline
        ndarrays here (no ray.put: the wrapper pickles with the query)."""
        if filter is None and mask is None:
            return q2
        fq, _ = self._norm_filter(filter, put=False)
        mq, _ = self._norm_filter(mask, put=False)
        if fq is None and mq is None:
            # both sides hit the falsy bypass (NullQuery / empty set-like)
            return q2
        return Q.Filtered(q2, fq, mq)

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
        independently (shard-table check granularity — ScoreServer
        .score_deadline); if ANY actor ran out, raises
        :class:`whoosh_novo_ray.search.wand.TimeLimit` carrying the exact
        merge of everything that DID finish in ``.partial`` (the reference
        TimeLimitCollector contract: partial results stay available).
        Local-fallback queries (Otherwise/Nested) ignore the deadline —
        they evaluate driver-side in one shot.

        ``filter`` / ``mask``: FilterCollector allow/restrict (a Query,
        results table, or set-like of doc ids); per-shard filtering happens
        before each shard's top-k cut, so the merge is exact."""
        if self._needs_fallback(q) or any(
            isinstance(f, Q.Query) and self._needs_fallback(f)
            for f in (filter, mask)
            if f is not None
        ):
            s = Searcher(self.index, weighting=weighting)
            return s.search(q, limit=limit, filter=filter, mask=mask)
        q2 = self._rewrite(q)
        fq, fterms = self._norm_filter(filter)
        mq, mterms = self._norm_filter(mask)
        stat_terms = self._stat_terms(q2)
        gstats = self._gstats(sorted({*stat_terms, *fterms, *mterms}))
        if timelimit is not None:
            from whoosh_novo_ray.search.wand import TimeLimit

            futs = [
                a.score_deadline.remote(
                    q2, limit, gstats, timelimit, weighting, _delay_per_table,
                    fq, mq,
                )
                for a in self._route(self._est_cost(gstats, stat_terms))
            ]
            results = ray.get(futs)
            merged = _merge_topk([t for t, _to in results], limit)
            if any(to for _t, to in results):
                raise TimeLimit(merged, {"timed_out": True})
            return merged
        futs = [
            a.score.remote(q2, limit, gstats, weighting, fq, mq)
            for a in self._route(self._est_cost(gstats, stat_terms))
        ]
        return _merge_topk(ray.get(futs), limit)

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
        if self._needs_fallback(q) or any(
            isinstance(f, Q.Query) and self._needs_fallback(f)
            for f in (filter, mask)
            if f is not None
        ):
            s = Searcher(self.index, weighting=weighting)
            return ray.put(s.search(q, limit=limit, filter=filter, mask=mask))
        q2 = self._rewrite(q)
        fq, fterms = self._norm_filter(filter)
        mq, mterms = self._norm_filter(mask)
        stat_terms = self._stat_terms(q2)
        gstats = self._gstats(sorted({*stat_terms, *fterms, *mterms}))
        futs = [
            a.score.remote(q2, limit, gstats, weighting, fq, mq)
            for a in self._route(self._est_cost(gstats, stat_terms))
        ]
        if len(futs) == 1:
            # single-actor replica covers every shard: its top-k IS the
            # answer — skip the merge task (one less dispatch per query)
            return futs[0]
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

        With ``timelimit`` each query gets its OWN per-actor budget (the
        reference arms a TimeLimitCollector per search); the ref then
        resolves to a list of ``(table, timed_out)`` pairs — an async path
        can't raise per query, so the flag rides the result instead of a
        :class:`TimeLimit` exception. Local-fallback entries never time out
        (they evaluate driver-side in one shot, flag False)."""
        rewritten = []
        stat_terms: set[str] = set()
        fallback_idx: list[int] = []
        for i, q in enumerate(queries):
            if self._needs_fallback(q):
                fallback_idx.append(i)
                rewritten.append(None)
                continue
            q2 = self._rewrite(q)
            rewritten.append(q2)
            stat_terms.update(self._stat_terms(q2))

        def _wrap_local(t: pa.Table):
            return (t, False) if timelimit is not None else t

        def _score_many_futs(actors, qs):
            if timelimit is not None:
                return [
                    a.score_many_deadline.remote(
                        qs, limit, gstats, timelimit, weighting, _delay_per_table
                    )
                    for a in actors
                ]
            return [a.score_many.remote(qs, limit, gstats, weighting) for a in actors]

        def _merge_chunk(futs):
            # deadline results are (tables, flags) per actor — they always
            # need the zip/merge task, even from a single actor
            if timelimit is not None:
                return _merge_many_deadline_task.remote(limit, *futs)
            return futs[0] if len(futs) == 1 else _merge_many_task.remote(limit, *futs)

        remote_qs = [q2 for q2 in rewritten if q2 is not None]
        if not remote_qs:
            s = Searcher(self.index, weighting=weighting)
            return ray.put(
                [_wrap_local(s.search(queries[i], limit=limit)) for i in fallback_idx]
            )
        gstats = self._gstats(sorted(stat_terms))
        R = len(self._replicas)
        if R == 1 or len(remote_qs) == 1:
            futs = _score_many_futs(
                self._route(sum(self._est_cost(gstats, self._stat_terms(q2)) for q2 in remote_qs)),
                remote_qs,
            )
            merged_ref = _merge_chunk(futs)
        else:
            # split the batch ACROSS replica groups, LPT-style: queries in
            # descending estimated cost, each to the least-loaded replica
            # (continuing the pool's running balance). A strided split has
            # the same aliasing failure as round-robin routing — a cyclic
            # batch with period R lands every expensive query in one chunk.
            costs = [
                self._est_cost(gstats, self._stat_terms(q2)) for q2 in remote_qs
            ]
            order = sorted(range(len(remote_qs)), key=lambda i: -costs[i])
            assign: list[list[int]] = [[] for _ in range(R)]
            loads = self._replica_load
            for i in order:
                r = min(range(R), key=loads.__getitem__)
                loads[r] += costs[i]
                assign[r].append(i)
            if max(loads) > 1e12:  # rebase, keep relative differences
                m = min(loads)
                for j in range(R):
                    loads[j] -= m
            chunk_refs = []
            idx_lists = []
            for grp, idxs in zip(self._replicas, assign):
                if not idxs:
                    continue
                chunk = [remote_qs[i] for i in idxs]
                chunk_refs.append(_merge_chunk(_score_many_futs(grp, chunk)))
                idx_lists.append(idxs)
            merged_ref = _scatter_task.remote(
                len(remote_qs), idx_lists, *chunk_refs
            )
        if not fallback_idx:
            return merged_ref
        # fallbacks (Otherwise/Nested*) evaluate driver-side AFTER the remote
        # dispatch, so the actor fleet is already working while the driver
        # handles the (rare) global-semantics stragglers
        s = Searcher(self.index, weighting=weighting)
        local = {
            i: _wrap_local(s.search(queries[i], limit=limit)) for i in fallback_idx
        }
        return _splice_task.remote(len(queries), local, merged_ref)

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
        exactly like search(). With ``timelimit``, each actor's cursor loop
        checks the deadline per iteration; any expiry raises
        :class:`TimeLimit` carrying the merged partials."""
        from whoosh_novo_ray.search.wand import TimeLimit

        gstats = self._gstats(list(terms))
        futs = [
            a.wand.remote(list(terms), k, gstats, weighting, strategy, timelimit)
            for a in self._route(self._est_cost(gstats, list(terms)))
        ]
        results = ray.get(futs)
        merged = _merge_topk([t for t, _s in results], k)
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
        out = os.path.join(self._serving_dir, "attrs", tag)
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
        FieldFacet. With ``timelimit`` each actor counts under the budget
        (shard-table granularity); if any ran out, raises
        :class:`whoosh_novo_ray.search.wand.TimeLimit` carrying the partial
        counts (exact over the covered tables) in ``.partial``."""
        attrs_dir = self._attrs_dir_for(attrs_path, column)
        q2 = self._wrap_filter(self._rewrite(q), filter, mask)
        gstats = self._gstats(self._stat_terms(q2))
        actors = self._route(self._est_cost(gstats, self._stat_terms(q2)))
        timed_out = False
        if timelimit is not None:
            futs = [
                a.facet_counts_deadline.remote(
                    q2, gstats, attrs_dir, column, timelimit, weighting,
                    _delay_per_table,
                )
                for a in actors
            ]
            results = ray.get(futs)
            parts = [t for t, _to in results if len(t)]
            timed_out = any(to for _t, to in results)
        else:
            futs = [
                a.facet_counts.remote(q2, gstats, attrs_dir, column, weighting)
                for a in actors
            ]
            parts = [t for t in ray.get(futs) if len(t)]
        if not parts:
            out = pa.table(
                {"key": pa.array([], pa.string()), "count": pa.array([], pa.int64())}
            )
        else:
            tbl = pa.concat_tables(parts)
            g = pa.TableGroupBy(tbl, "key").aggregate([("count", "sum")])
            g = g.rename_columns(["key", "count"])
            out = g.sort_by("key")
        if timed_out:
            from whoosh_novo_ray.search.wand import TimeLimit

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
        never eliminated. With ``timelimit`` each actor works under the
        budget; any expiry raises :class:`TimeLimit` carrying the collapse
        over the covered tables in ``.partial``."""
        attrs_dir = self._attrs_dir_for(attrs_path, column)
        order_dir = (
            self._attrs_dir_for(attrs_path, order_column)
            if order_column is not None
            else None
        )
        q2 = self._wrap_filter(self._rewrite(q), filter, mask)
        gstats = self._gstats(self._stat_terms(q2))
        actors = self._route(self._est_cost(gstats, self._stat_terms(q2)))
        timed_out = False
        if timelimit is not None:
            futs = [
                a.collapse_candidates_deadline.remote(
                    q2, gstats, attrs_dir, column, per_key, timelimit,
                    weighting, _delay_per_table, order_dir, order_column,
                )
                for a in actors
            ]
            results = ray.get(futs)
            parts = [t for t, _to in results if len(t)]
            timed_out = any(to for _t, to in results)
        else:
            futs = [
                a.collapse_candidates.remote(
                    q2, gstats, attrs_dir, column, per_key, weighting,
                    order_dir, order_column,
                )
                for a in actors
            ]
            parts = [t for t in ray.get(futs) if len(t)]
        if not parts:
            out = pa.table(
                {
                    "doc_id": pa.array([], pa.uint64()),
                    "key": pa.array([], pa.string()),
                    "score": pa.array([], pa.float64()),
                }
            )
        else:
            tbl = pa.concat_tables(parts)
            ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            scores = tbl["score"].to_numpy(zero_copy_only=False)
            keys = tbl["key"].to_numpy(zero_copy_only=False)
            okeys = (
                tbl["okey"].to_numpy(zero_copy_only=False)
                if "okey" in tbl.column_names
                else None
            )
            sel = _collapse_sel_order(ids, scores, okeys)
            ids, scores, keys = ids[sel], scores[sel], keys[sel]
            keep = _collapse_keep_mask(keys.astype(str), per_key)
            keep |= falsy_key_mask(keys)
            ids, scores, keys = ids[keep], scores[keep], keys[keep]
            # kept docs come back in RESULT order regardless of the orderer
            # (the reference orderer only changes which docs survive)
            res = np.lexsort((ids, -scores))
            ids, scores, keys = ids[res], scores[res], keys[res]
            if limit is not None:
                ids, scores, keys = ids[:limit], scores[:limit], keys[:limit]
            out = pa.table(
                {
                    "doc_id": pa.array(ids, pa.uint64()),
                    "key": pa.array(keys.astype(str), pa.string()),
                    "score": pa.array(scores, pa.float64()),
                }
            )
        if timed_out:
            from whoosh_novo_ray.search.wand import TimeLimit

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
        ``sorting.sorted_search`` (doc_id, key, score)."""
        if isinstance(columns, str):
            columns = [columns]
        if isinstance(reverses, bool):
            reverses = [reverses] * len(columns)
        attrs_dirs = [self._attrs_dir_for(attrs_path, c) for c in columns]
        q2 = self._wrap_filter(self._rewrite(q), filter, mask)
        gstats = self._gstats(self._stat_terms(q2))
        actors = self._route(self._est_cost(gstats, self._stat_terms(q2)))
        futs = [
            a.sorted_candidates.remote(
                q2, gstats, attrs_dirs, columns, list(reverses), limit,
                weighting,
            )
            for a in actors
        ]
        parts = [t for t in ray.get(futs) if len(t)]
        if not parts:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.uint64()),
                    "key": pa.array([], pa.string()),
                    "score": pa.array([], pa.float64()),
                }
            )
        tbl = pa.concat_tables(parts)
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        scores = tbl["score"].to_numpy(zero_copy_only=False)
        keysets = [
            tbl[f"k{i}"].to_numpy(zero_copy_only=False)
            for i in range(len(columns))
        ]
        ranks = []
        for k, rev in zip(keysets, reverses):
            rank = np.unique(k, return_inverse=True)[1]
            ranks.append(-rank if rev else rank)
        order = np.lexsort((ids, *reversed(ranks)))
        if limit is not None:
            order = order[:limit]
        if len(columns) == 1:
            disp = [str(k) for k in keysets[0][order]]
        else:
            disp = [
                str(tuple(ks[i] for ks in keysets)) for i in order
            ]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.uint64()),
                "key": pa.array(disp, pa.string()),
                "score": pa.array(scores[order], pa.float64()),
            }
        )

    def shutdown(self) -> None:
        for grp in self._replicas:
            for a in grp:
                ray.kill(a)
        self._replicas = [[]]
        self._actors = []
